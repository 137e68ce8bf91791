#include "service/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace patty::service {

namespace {

/// send() with MSG_NOSIGNAL so a peer that hung up yields EPIPE, not a
/// process-killing SIGPIPE; falls back to write() for plain fds (pipes in
/// tests). Retries on EINTR, loops on partial transfers.
bool write_all(int fd, const void* data, std::size_t len, std::string* error) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error) {
        // EAGAIN on a blocking socket means SO_SNDTIMEO expired: the peer
        // stopped reading and the send buffer stayed full.
        *error = (errno == EAGAIN || errno == EWOULDBLOCK)
                     ? std::string("write: timed out (peer not reading)")
                     : std::string("write: ") + std::strerror(errno);
      }
      return false;
    }
    p += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

/// Read exactly `len` bytes. 1 = done, 0 = EOF before the first byte,
/// -1 = error or EOF mid-read.
int read_all(int fd, void* data, std::size_t len, std::string* error) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = ::read(fd, p + got, len - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (error) *error = std::string("read: ") + std::strerror(errno);
      return -1;
    }
    if (n == 0) {
      if (got == 0) return 0;
      if (error) *error = "connection closed mid-frame";
      return -1;
    }
    got += static_cast<std::size_t>(n);
  }
  return 1;
}

/// Reads an optional integer field; *out keeps its default when the key is
/// absent. A present value must be an integer literal that fits int64 (the
/// parser keeps a fraction, `1e300` or a 20-digit literal as a double):
/// anything else rejects the request, naming the field.
bool read_int(const json::Value& v, const char* key, std::int64_t* out,
              std::string* error) {
  const json::Value* field = v.find(key);
  if (field == nullptr) return true;
  if (field->kind() != json::Value::Kind::Int) {
    if (error) *error = std::string("'") + key + "' must be an int64 integer";
    return false;
  }
  *out = field->as_int();
  return true;
}

}  // namespace

bool write_frame(int fd, std::string_view payload, std::string* error,
                 std::uint32_t max_bytes) {
  if (payload.size() > max_bytes) {
    if (error)
      *error = "frame of " + std::to_string(payload.size()) +
               " bytes exceeds the " + std::to_string(max_bytes) +
               "-byte limit";
    return false;
  }
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  unsigned char prefix[4] = {
      static_cast<unsigned char>(len >> 24),
      static_cast<unsigned char>(len >> 16),
      static_cast<unsigned char>(len >> 8),
      static_cast<unsigned char>(len),
  };
  if (!write_all(fd, prefix, sizeof(prefix), error)) return false;
  return write_all(fd, payload.data(), payload.size(), error);
}

int read_frame(int fd, std::string* payload, std::string* error,
               std::uint32_t max_bytes) {
  unsigned char prefix[4];
  const int got = read_all(fd, prefix, sizeof(prefix), error);
  if (got <= 0) return got;
  const std::uint32_t len = (static_cast<std::uint32_t>(prefix[0]) << 24) |
                            (static_cast<std::uint32_t>(prefix[1]) << 16) |
                            (static_cast<std::uint32_t>(prefix[2]) << 8) |
                            static_cast<std::uint32_t>(prefix[3]);
  if (len > max_bytes) {
    // Do not trust the length before bounding it: an adversarial prefix
    // must not turn into a 4 GB allocation.
    if (error)
      *error = "frame length " + std::to_string(len) + " exceeds the " +
               std::to_string(max_bytes) + "-byte limit";
    return -1;
  }
  payload->resize(len);
  if (len == 0) return 1;
  return read_all(fd, payload->data(), len, error) == 1 ? 1 : -1;
}

const char* request_kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::Parse: return "parse";
    case RequestKind::Detect: return "detect";
    case RequestKind::Certify: return "certify";
    case RequestKind::Tune: return "tune";
    case RequestKind::Health: return "health";
    case RequestKind::Stats: return "stats";
    case RequestKind::Shutdown: return "shutdown";
  }
  return "?";
}

std::optional<RequestKind> parse_request_kind(std::string_view name) {
  if (name == "parse") return RequestKind::Parse;
  if (name == "detect") return RequestKind::Detect;
  if (name == "certify") return RequestKind::Certify;
  if (name == "tune") return RequestKind::Tune;
  if (name == "health") return RequestKind::Health;
  if (name == "stats") return RequestKind::Stats;
  if (name == "shutdown") return RequestKind::Shutdown;
  return std::nullopt;
}

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::BadRequest: return "bad_request";
    case ErrorCode::ParseError: return "parse_error";
    case ErrorCode::Analysis: return "analysis_error";
    case ErrorCode::Deadline: return "deadline";
    case ErrorCode::Overloaded: return "overloaded";
    case ErrorCode::Internal: return "internal";
    case ErrorCode::ShuttingDown: return "shutting_down";
  }
  return "?";
}

std::optional<ErrorCode> parse_error_code(std::string_view name) {
  if (name == "bad_request") return ErrorCode::BadRequest;
  if (name == "parse_error") return ErrorCode::ParseError;
  if (name == "analysis_error") return ErrorCode::Analysis;
  if (name == "deadline") return ErrorCode::Deadline;
  if (name == "overloaded") return ErrorCode::Overloaded;
  if (name == "internal") return ErrorCode::Internal;
  if (name == "shutting_down") return ErrorCode::ShuttingDown;
  return std::nullopt;
}

json::Value Request::to_json() const {
  json::Value v = json::Value::object();
  v.set("id", id);
  v.set("kind", request_kind_name(kind));
  if (!source.empty()) v.set("source", source);
  if (deadline_ms != 0) v.set("deadline_ms", deadline_ms);
  if (!optimistic) v.set("optimistic", false);
  if (no_cache) v.set("no_cache", true);
  if (kind == RequestKind::Tune) v.set("max_evals", max_evals);
  return v;
}

std::optional<Request> Request::from_json(const json::Value& v,
                                          std::string* error) {
  if (!v.is_object()) {
    if (error) *error = "request must be a JSON object";
    return std::nullopt;
  }
  Request req;
  const json::Value& kind = v.at("kind");
  if (!kind.is_string()) {
    if (error) *error = "missing request kind";
    return std::nullopt;
  }
  const auto parsed = parse_request_kind(kind.as_string());
  if (!parsed) {
    if (error) *error = "unknown request kind '" + kind.as_string() + "'";
    return std::nullopt;
  }
  req.kind = *parsed;
  if (!read_int(v, "id", &req.id, error) ||
      !read_int(v, "deadline_ms", &req.deadline_ms, error) ||
      !read_int(v, "max_evals", &req.max_evals, error))
    return std::nullopt;
  req.source = v.at("source").as_string();
  req.optimistic = v.at("optimistic").as_bool(true);
  req.no_cache = v.at("no_cache").as_bool(false);
  if (req.deadline_ms < 0) {
    if (error) *error = "'deadline_ms' must be >= 0";
    return std::nullopt;
  }
  if (req.max_evals < 1) {
    if (error) *error = "'max_evals' must be >= 1";
    return std::nullopt;
  }
  const bool needs_source = req.kind == RequestKind::Parse ||
                            req.kind == RequestKind::Detect ||
                            req.kind == RequestKind::Certify ||
                            req.kind == RequestKind::Tune;
  if (needs_source && req.source.empty()) {
    if (error)
      *error = std::string("'") + request_kind_name(req.kind) +
               "' request without a source";
    return std::nullopt;
  }
  return req;
}

json::Value Response::to_json() const {
  json::Value v = json::Value::object();
  v.set("id", id);
  v.set("ok", ok);
  if (!kind.empty()) v.set("kind", kind);
  if (cached) v.set("cached", true);
  if (ok) {
    v.set("result", result);
  } else {
    json::Value err = json::Value::object();
    err.set("code", error_code_name(error_code));
    err.set("message", error_message);
    v.set("error", std::move(err));
  }
  return v;
}

std::optional<Response> Response::from_json(const json::Value& v,
                                            std::string* error) {
  if (!v.is_object()) {
    if (error) *error = "response must be a JSON object";
    return std::nullopt;
  }
  Response resp;
  resp.id = v.at("id").as_int();
  resp.ok = v.at("ok").as_bool();
  resp.kind = v.at("kind").as_string();
  resp.cached = v.at("cached").as_bool();
  if (resp.ok) {
    resp.result = v.at("result");
  } else {
    const json::Value& err = v.at("error");
    const auto code = parse_error_code(err.at("code").as_string());
    if (!code) {
      if (error)
        *error = "unknown error code '" + err.at("code").as_string() + "'";
      return std::nullopt;
    }
    resp.error_code = *code;
    resp.error_message = err.at("message").as_string();
  }
  return resp;
}

Response Response::failure(std::int64_t id, ErrorCode code,
                           std::string message, std::string kind) {
  Response resp;
  resp.id = id;
  resp.ok = false;
  resp.kind = std::move(kind);
  resp.error_code = code;
  resp.error_message = std::move(message);
  return resp;
}

}  // namespace patty::service
