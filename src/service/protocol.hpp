#pragma once
// Wire protocol for the resident analysis daemon (patty-serve): a stream
// of length-prefixed JSON frames over a Unix-domain socket. Each frame is
// a 4-byte big-endian payload length followed by exactly one JSON document
// (one logical line — the "JSON-lines" body never contains raw newlines,
// dump() escapes them). Requests and responses are matched by `id`;
// responses to one connection come back in completion order, so pipelined
// clients must not assume FIFO.
//
// Request (fields beyond `kind` are optional with the defaults below, a
// number must be an int64 integer literal, and any other key is ignored):
//   {"id":7,"kind":"detect","source":"class Main {...}","deadline_ms":500,
//    "optimistic":true,"no_cache":false}
// Success:
//   {"id":7,"ok":true,"kind":"detect","cached":true,"result":{...}}
// Failure (structured, never a dropped connection):
//   {"id":7,"ok":false,"kind":"detect",
//    "error":{"code":"deadline","message":"..."}}

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "service/json.hpp"

namespace patty::service {

/// Frame-size ceiling: a decoder reading an untrusted length prefix must
/// bound its allocation before trusting it.
constexpr std::uint32_t kMaxFrameBytes = 16u << 20;  // 16 MB

/// Write one frame (length prefix + payload). False + *error on IO failure
/// (including a payload over `max_bytes`). Never raises SIGPIPE.
bool write_frame(int fd, std::string_view payload, std::string* error,
                 std::uint32_t max_bytes = kMaxFrameBytes);

/// Read one frame into *payload. 1 = frame read, 0 = clean EOF at a frame
/// boundary, -1 = IO/protocol error (mid-frame EOF, oversized length).
int read_frame(int fd, std::string* payload, std::string* error,
               std::uint32_t max_bytes = kMaxFrameBytes);

enum class RequestKind : std::uint8_t {
  Parse,     // front-end syntax/sema check only
  Detect,    // full front-end: parse -> semantic model -> pattern detection
  Certify,   // detect + MHP certification of the detected regions
  Tune,      // detect + autotune the top candidate's tuning space
  Health,    // liveness + load + cache summary (answered inline, never shed)
  Stats,     // full service./fault./frontend. metric dump (answered inline)
  Shutdown,  // orderly daemon stop (answered before the listener closes)
};

const char* request_kind_name(RequestKind kind);
std::optional<RequestKind> parse_request_kind(std::string_view name);

struct Request {
  std::int64_t id = 0;
  RequestKind kind = RequestKind::Parse;
  std::string source;              // MiniOO program text
  std::int64_t deadline_ms = 0;    // 0 = server default (at most its cap)
  bool optimistic = true;          // detector mode
  bool no_cache = false;           // bypass the semantic-model cache
  std::int64_t max_evals = 12;     // tune: measured-evaluation budget

  [[nodiscard]] json::Value to_json() const;
  /// Decode; nullopt + *error on a structurally invalid request (bad kind,
  /// a number field that is not an in-range integer, a negative
  /// `deadline_ms` or a `max_evals` below 1, missing source for kinds that
  /// need one).
  static std::optional<Request> from_json(const json::Value& v,
                                          std::string* error);
};

enum class ErrorCode : std::uint8_t {
  BadRequest,   // malformed frame/JSON/kind — the request never ran
  ParseError,   // MiniOO front-end rejected the source
  Analysis,     // semantic model / interpreter failure
  Deadline,     // deadline_ms expired before the request finished
  Overloaded,   // shed at admission: queue at its high-water mark
  Internal,     // fault captured inside the request's fault domain
  ShuttingDown, // daemon is draining; request was not run
};

const char* error_code_name(ErrorCode code);
std::optional<ErrorCode> parse_error_code(std::string_view name);

struct Response {
  std::int64_t id = 0;
  bool ok = false;
  std::string kind;  // echo of the request kind ("" when undecodable)
  // Failure:
  ErrorCode error_code = ErrorCode::Internal;
  std::string error_message;
  bool cached = false;  // answered from the semantic-model cache
  // Success payload, kind-specific (see DESIGN.md §14).
  json::Value result;

  [[nodiscard]] json::Value to_json() const;
  static std::optional<Response> from_json(const json::Value& v,
                                           std::string* error);

  static Response failure(std::int64_t id, ErrorCode code,
                          std::string message, std::string kind = {});
};

}  // namespace patty::service
