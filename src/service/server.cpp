#include "service/server.hpp"

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "analysis/semantic_model.hpp"
#include "lang/ast.hpp"
#include "lang/sema.hpp"
#include "observe/explain.hpp"
#include "observe/metrics.hpp"
#include "observe/trace.hpp"
#include "patterns/detector.hpp"
#include "runtime/cancellation.hpp"
#include "support/failpoint.hpp"
#include "transform/certify.hpp"
#include "transform/plan.hpp"
#include "tuning/tuner.hpp"

namespace patty::service {

namespace {

/// Service instruments, published unconditionally (one relaxed atomic per
/// event): the health endpoint must tell the truth even with the trace
/// layer off. References are stable for the process lifetime.
struct ServiceMetrics {
  observe::Registry& reg = observe::Registry::global();
  observe::Counter& accepted = reg.counter("service.requests.accepted");
  observe::Counter& overloaded = reg.counter("service.requests.overloaded");
  observe::Counter& decode_errors = reg.counter("service.requests.decode_errors");
  observe::Counter& rejected_shutdown =
      reg.counter("service.requests.rejected_shutdown");
  observe::Counter& ok = reg.counter("service.responses.ok");
  observe::Counter& errors = reg.counter("service.responses.error");
  observe::Counter& write_failures =
      reg.counter("service.responses.write_failures");
  observe::Counter& deadline_expired = reg.counter("service.deadline_expired");
  observe::Counter& accept_faults = reg.counter("service.accept_faults");
  observe::Gauge& queue_depth = reg.gauge("service.queue.depth");
  observe::Gauge& connections = reg.gauge("service.connections");
  observe::Histogram& latency_ms = reg.histogram("service.latency_ms");
  observe::Histogram& queue_wait_ms = reg.histogram("service.queue_wait_ms");
};

ServiceMetrics& metrics() {
  static ServiceMetrics* m = new ServiceMetrics();  // immortal
  return *m;
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

/// Typed internal failure: execute() turns it into a structured response.
struct Server::RequestError {
  ErrorCode code;
  std::string message;
};

/// One client connection. The reader thread lives here; responses from
/// worker threads serialize on write_mutex (pipelined requests complete
/// out of order but frames never interleave).
struct Server::Conn {
  int fd = -1;
  std::mutex write_mutex;
  std::atomic<bool> open{true};
  std::atomic<bool> done{false};  // reader thread exited; reapable
  std::thread thread;
  // The fd is closed here, not at hangup: workers hold shared_ptr<Conn>
  // through Pending, so the fd number stays reserved until the last
  // response is written. A late respond() after hangup hits a shut-down
  // socket (harmless EPIPE) — never a recycled fd now owned by a newly
  // accepted client.
  ~Conn() {
    if (fd >= 0) ::close(fd);
  }
};

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_bytes) {}

Server::~Server() { stop(); }

void Server::start() {
  if (running_.load(std::memory_order_acquire)) return;
  if (options_.enable_telemetry) observe::set_enabled(true);

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (options_.socket_path.empty() ||
      options_.socket_path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("service: bad socket path '" +
                             options_.socket_path + "'");
  std::memcpy(addr.sun_path, options_.socket_path.c_str(),
              options_.socket_path.size() + 1);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0)
    throw std::runtime_error(std::string("service: socket: ") +
                             std::strerror(errno));
  // Reclaim only a *stale* socket: if something still accepts on the path,
  // unlinking would silently steal a live daemon's endpoint. ENOENT and
  // ECONNREFUSED both mean no one is serving it.
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe >= 0) {
    const bool live =
        ::connect(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
        0;
    ::close(probe);
    if (live) {
      ::close(listen_fd);
      throw std::runtime_error("service: '" + options_.socket_path +
                               "' is already served by a live daemon");
    }
  }
  ::unlink(options_.socket_path.c_str());  // stale socket from a past run
  if (::bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd, 64) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd);
    throw std::runtime_error("service: bind/listen on '" +
                             options_.socket_path + "': " + why);
  }
  listen_fd_.store(listen_fd, std::memory_order_release);

  started_at_ = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    accepting_ = true;
    workers_quit_ = false;
  }
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  const int workers = std::max(1, options_.workers);
  workers_.reserve(static_cast<std::size_t>(workers));
  for (int i = 0; i < workers; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void Server::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;

  // 1. Stop admitting: new arrivals get shutting_down, not a queue slot.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    accepting_ = false;
  }
  // 2. Kill the listener; the accept loop unblocks and exits. shutdown()
  //    here, close() only after the join: the accept thread may already
  //    have loaded the fd value, and accept() must hit a shut-down
  //    listener, not a closed (or by then recycled) descriptor.
  const int listen_fd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (listen_fd >= 0) ::shutdown(listen_fd, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd >= 0) ::close(listen_fd);
  // 3. Drain: workers finish the queued requests (every one of them still
  //    gets its response), then exit on the quit flag.
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    workers_quit_ = true;
  }
  queue_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  // 4. Hang up every connection; readers unblock and exit.
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    for (const std::shared_ptr<Conn>& c : conns_) {
      if (c->open.exchange(false)) ::shutdown(c->fd, SHUT_RDWR);
    }
  }
  reap_connections(/*all=*/true);
  ::unlink(options_.socket_path.c_str());
  request_shutdown();  // release any wait_for_shutdown() caller
}

void Server::request_shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

bool Server::wait_for_shutdown(std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(shutdown_mutex_);
  if (timeout.count() <= 0) {
    shutdown_cv_.wait(lock, [this] { return shutdown_requested_; });
    return true;
  }
  return shutdown_cv_.wait_for(lock, timeout,
                               [this] { return shutdown_requested_; });
}

std::size_t Server::queue_depth() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return queue_.size();
}

void Server::accept_loop() {
  for (;;) {
    const int listen_fd = listen_fd_.load(std::memory_order_acquire);
    if (listen_fd < 0) return;
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (!running_.load(std::memory_order_acquire)) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener gone
    }
    try {
      PATTY_FAILPOINT("service.accept");
    } catch (const support::failpoint::FailpointError&) {
      // Injected accept fault: this connection is lost, the daemon is not.
      metrics().accept_faults.add();
      ::close(fd);
      continue;
    }
    // Bound every response write: a client that stops reading makes send()
    // fail with EAGAIN after the timeout instead of blocking a worker (and
    // stop()'s drain, which joins workers before hanging up connections)
    // forever.
    if (options_.write_timeout_ms > 0) {
      timeval tv{};
      tv.tv_sec = options_.write_timeout_ms / 1000;
      tv.tv_usec =
          static_cast<suseconds_t>(options_.write_timeout_ms % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
    }
    reap_connections(/*all=*/false);
    auto conn = std::make_shared<Conn>();
    conn->fd = fd;
    metrics().connections.add(1);
    {
      std::lock_guard<std::mutex> lock(conns_mutex_);
      conns_.push_back(conn);
    }
    conn->thread = std::thread([this, conn] { connection_loop(conn); });
  }
}

void Server::reap_connections(bool all) {
  std::vector<std::shared_ptr<Conn>> reap;
  {
    std::lock_guard<std::mutex> lock(conns_mutex_);
    auto it = conns_.begin();
    while (it != conns_.end()) {
      if (all || (*it)->done.load(std::memory_order_acquire)) {
        reap.push_back(*it);
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const std::shared_ptr<Conn>& c : reap)
    if (c->thread.joinable()) c->thread.join();
}

void Server::connection_loop(const std::shared_ptr<Conn>& conn) {
  for (;;) {
    std::string payload;
    std::string error;
    const int got =
        read_frame(conn->fd, &payload, &error, options_.max_frame_bytes);
    if (got == 0) break;  // clean EOF
    if (got < 0) {
      // Framing garbage (bad length, mid-frame hangup): the stream cannot
      // be resynchronized, so the connection is dropped — but only this
      // connection.
      if (conn->open.load(std::memory_order_acquire))
        metrics().decode_errors.add();
      break;
    }
    handle_frame(conn, std::move(payload));
    if (!conn->open.load(std::memory_order_acquire)) break;
  }
  // Hang up but do NOT close: the fd stays reserved until the last
  // shared_ptr<Conn> holder (a worker mid-respond, possibly) drops it —
  // see ~Conn.
  if (conn->open.exchange(false)) ::shutdown(conn->fd, SHUT_RDWR);
  metrics().connections.add(-1);
  conn->done.store(true, std::memory_order_release);
}

void Server::handle_frame(const std::shared_ptr<Conn>& conn,
                          std::string payload) {
  try {
    PATTY_FAILPOINT("service.decode");
  } catch (const support::failpoint::FailpointError& e) {
    // Not admitted: counted as a decode error, not against the
    // accepted == ok + error balance the soak gate asserts.
    metrics().decode_errors.add();
    respond(*conn, Response::failure(0, ErrorCode::Internal, e.what()));
    return;
  }
  std::string error;
  const auto doc = json::Value::parse(payload, &error);
  if (!doc) {
    metrics().decode_errors.add();
    respond(*conn,
            Response::failure(0, ErrorCode::BadRequest, "bad JSON: " + error));
    return;
  }
  const auto req = Request::from_json(*doc, &error);
  if (!req) {
    metrics().decode_errors.add();
    respond(*conn, Response::failure(doc->at("id").as_int(),
                                     ErrorCode::BadRequest, error));
    return;
  }

  // Health, stats and shutdown are answered inline on the connection
  // thread: a load probe that can be shed by the very overload it is
  // probing would be useless.
  if (req->kind == RequestKind::Health || req->kind == RequestKind::Stats) {
    metrics().accepted.add();
    const Response resp =
        handle_health(*req, req->kind == RequestKind::Stats);
    metrics().ok.add();
    respond(*conn, resp);
    return;
  }
  if (req->kind == RequestKind::Shutdown) {
    metrics().accepted.add();
    Response resp;
    resp.id = req->id;
    resp.ok = true;
    resp.kind = request_kind_name(req->kind);
    resp.result.set("stopping", true);
    metrics().ok.add();
    respond(*conn, resp);
    request_shutdown();
    return;
  }

  // Admission control: shed-not-queue. Decide under the queue lock, write
  // the rejection outside it — a shed response's socket write must never
  // stall the workers.
  enum class Admission { Queued, Overloaded, ShuttingDown } admission;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (!accepting_) {
      admission = Admission::ShuttingDown;
    } else if (queue_.size() >= options_.queue_limit) {
      admission = Admission::Overloaded;
    } else {
      admission = Admission::Queued;
      metrics().accepted.add();
      metrics().queue_depth.add(1);
      queue_.push_back(
          Pending{std::move(*req), conn, std::chrono::steady_clock::now()});
    }
  }
  switch (admission) {
    case Admission::Queued:
      queue_cv_.notify_one();
      break;
    case Admission::Overloaded:
      metrics().overloaded.add();
      respond(*conn,
              Response::failure(
                  req->id, ErrorCode::Overloaded,
                  "pending queue at high-water mark (" +
                      std::to_string(options_.queue_limit) + ")",
                  request_kind_name(req->kind)));
      break;
    case Admission::ShuttingDown:
      metrics().rejected_shutdown.add();
      respond(*conn,
              Response::failure(req->id, ErrorCode::ShuttingDown,
                                "daemon is draining",
                                request_kind_name(req->kind)));
      break;
  }
}

void Server::worker_loop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock,
                     [this] { return workers_quit_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (workers_quit_) return;
        continue;
      }
      pending = std::move(queue_.front());
      queue_.pop_front();
      metrics().queue_depth.add(-1);
    }
    metrics().queue_wait_ms.record(ms_since(pending.enqueued));
    const auto start = std::chrono::steady_clock::now();
    const Response resp = execute(pending.req);
    metrics().latency_ms.record(ms_since(start));
    (resp.ok ? metrics().ok : metrics().errors).add();
    if (!resp.ok && resp.error_code == ErrorCode::Deadline)
      metrics().deadline_expired.add();
    respond(*pending.conn, resp);
  }
}

void Server::respond(Conn& conn, const Response& resp) {
  const std::string payload = resp.to_json().dump();
  std::lock_guard<std::mutex> lock(conn.write_mutex);
  if (!conn.open.load(std::memory_order_acquire)) {
    metrics().write_failures.add();
    return;
  }
  try {
    PATTY_FAILPOINT("service.response.write");
    std::string error;
    if (!write_frame(conn.fd, payload, &error, options_.max_frame_bytes)) {
      metrics().write_failures.add();
      if (conn.open.exchange(false)) ::shutdown(conn.fd, SHUT_RDWR);
    }
  } catch (const support::failpoint::FailpointError&) {
    // Injected write fault: the frame boundary is lost, so the connection
    // goes down — the daemon and its other connections do not.
    metrics().write_failures.add();
    if (conn.open.exchange(false)) ::shutdown(conn.fd, SHUT_RDWR);
  }
}

// ---------------------------------------------------------------------------
// Request execution: one fault domain per request.

Response Server::execute(const Request& req) {
  Response resp;
  resp.id = req.id;
  resp.kind = request_kind_name(req.kind);

  rt::StopSource stop;
  std::int64_t deadline_ms =
      req.deadline_ms > 0 ? req.deadline_ms : options_.default_deadline_ms;
  // The ceiling bounds every request, one that carries no deadline too.
  if (options_.max_deadline_ms > 0 &&
      (deadline_ms <= 0 || deadline_ms > options_.max_deadline_ms))
    deadline_ms = options_.max_deadline_ms;
  std::optional<rt::ScopedDeadline> deadline;
  if (deadline_ms > 0)
    deadline.emplace(stop, std::chrono::milliseconds(deadline_ms));
  // The ambient token makes every parallel region started inside the
  // request a child of its fault domain: the deadline cancels nested work,
  // and a sibling request (its own StopSource) is untouched.
  rt::StopScope scope(stop.token());

  const auto expired = [&] { return deadline && deadline->expired(); };
  try {
    switch (req.kind) {
      case RequestKind::Parse:
        resp.result = do_parse(req);
        break;
      case RequestKind::Detect:
      case RequestKind::Certify:
      case RequestKind::Tune: {
        bool cached = false;
        const std::shared_ptr<const ModelEntry> entry =
            acquire_model(req, &cached);
        resp.cached = cached;
        if (req.kind == RequestKind::Detect)
          resp.result = do_detect(req, *entry);
        else if (req.kind == RequestKind::Certify)
          resp.result = do_certify(req, *entry);
        else
          resp.result = do_tune(req, *entry);
        break;
      }
      default:
        throw RequestError{ErrorCode::BadRequest,
                           "kind not executable on a worker"};
    }
    if (stop.stop_requested())
      throw rt::OperationCancelled("service request");
    resp.ok = true;
  } catch (const rt::OperationCancelled&) {
    resp.ok = false;
    resp.error_code = ErrorCode::Deadline;
    resp.error_message = expired()
                             ? "deadline of " + std::to_string(deadline_ms) +
                                   " ms expired"
                             : "request cancelled";
  } catch (const RequestError& e) {
    resp.ok = false;
    resp.error_code = e.code;
    resp.error_message = e.message;
  } catch (const analysis::RuntimeError& e) {
    // Interpreter faults (null deref, division by zero, step limit) are a
    // plain struct, not std::exception.
    resp.ok = false;
    resp.error_code = ErrorCode::Analysis;
    resp.error_message = e.message + " at " + e.range.str();
  } catch (const std::exception& e) {
    resp.ok = false;
    if (expired()) {
      resp.error_code = ErrorCode::Deadline;
      resp.error_message = "deadline of " + std::to_string(deadline_ms) +
                           " ms expired (" + e.what() + ")";
    } else {
      resp.error_code = ErrorCode::Internal;
      resp.error_message = e.what();
    }
  } catch (...) {
    resp.ok = false;
    resp.error_code = ErrorCode::Internal;
    resp.error_message = "unknown exception";
  }
  return resp;
}

json::Value Server::do_parse(const Request& req) {
  DiagnosticSink diags;
  const auto program = lang::parse_and_check(req.source, diags);
  if (!program) throw RequestError{ErrorCode::ParseError, diags.to_string()};
  corpus::CorpusProgram cp;
  cp.name = "request";
  cp.source = req.source;
  std::size_t methods = 0;
  for (const auto& cls : program->classes) methods += cls->methods.size();
  json::Value result = json::Value::object();
  result.set("classes", program->classes.size());
  result.set("methods", methods);
  result.set("loc", cp.loc());
  return result;
}

std::shared_ptr<const ModelEntry> Server::acquire_model(const Request& req,
                                                        bool* cached) {
  const std::uint64_t key = ModelCache::key(req.source, req.optimistic);
  if (!req.no_cache) {
    if (std::shared_ptr<const ModelEntry> hit = cache_.lookup(key)) {
      *cached = true;
      return hit;
    }
  }

  corpus::CorpusProgram program;
  program.name = "request";
  program.source = req.source;
  corpus::FrontendConfig config;  // sequential, on this worker thread
  config.optimistic = req.optimistic;
  auto entry = std::make_shared<ModelEntry>();
  bool adopted = false;
  config.adopt = [&entry, &adopted](corpus::ProgramArtifacts&& artifacts) {
    entry->artifacts = std::move(artifacts);
    adopted = true;
  };
  // The single-program corpus rides the same evaluate_corpus front-end the
  // batch tool uses: same stages, same error convention, same telemetry.
  const corpus::CorpusReport report =
      corpus::evaluate_corpus({&program}, config);

  if (rt::stop_requested()) throw rt::OperationCancelled("service request");
  if (!adopted) {
    const std::string& error = report.programs.empty()
                                   ? std::string("front-end produced no report")
                                   : report.programs[0].error;
    // Classify: a source the parser rejects is the client's error
    // (parse_error), anything past that is an analysis failure. Reparsing
    // is cheap and only happens on this failure path.
    DiagnosticSink diags;
    if (!lang::parse_and_check(req.source, diags))
      throw RequestError{ErrorCode::ParseError, diags.to_string()};
    throw RequestError{ErrorCode::Analysis, error};
  }

  entry->bytes = entry_bytes(entry->artifacts, req.source.size());
  if (!req.no_cache) cache_.insert(key, entry);
  return entry;
}

json::Value Server::do_detect(const Request& req, const ModelEntry& entry) {
  (void)req;
  json::Value candidates = json::Value::array();
  for (const patterns::Candidate& c : entry.artifacts.detection->candidates) {
    json::Value item = json::Value::object();
    item.set("pattern", pattern_kind_name(c.kind));
    if (c.anchor)
      item.set("line", static_cast<std::int64_t>(c.anchor->range.begin.line));
    item.set("runtime_share", c.runtime_share);
    item.set("tadl", c.tadl);
    candidates.push_back(std::move(item));
  }
  json::Value result = json::Value::object();
  result.set("fingerprint", entry.artifacts.fingerprint);
  result.set("candidates", std::move(candidates));
  result.set("rejected", entry.artifacts.detection->rejected.size());
  return result;
}

json::Value Server::do_certify(const Request& req, const ModelEntry& entry) {
  (void)req;
  const transform::ProgramCertificate certificate = transform::certify_program(
      *entry.artifacts.model, entry.artifacts.detection->candidates, nullptr,
      "request");
  json::Value probes = json::Value::array();
  for (const transform::ProbeOutcome& p : certificate.probes) {
    json::Value item = json::Value::object();
    item.set("label", p.label);
    item.set("raced", p.raced);
    item.set("schedules", p.schedules_explored);
    if (!p.detail.empty()) item.set("detail", p.detail);
    probes.push_back(std::move(item));
  }
  const auto indices = [](const std::vector<std::size_t>& values) {
    json::Value list = json::Value::array();
    for (std::size_t v : values) list.push_back(v);
    return list;
  };
  json::Value regions = json::Value::array();
  for (const transform::RegionCertificate& r : certificate.regions) {
    json::Value item = json::Value::object();
    item.set("anchor", r.anchor);
    item.set("verdict", transform::verdict_name(r.verdict));
    item.set("residue_pairs", indices(r.residue_pairs));
    item.set("probes", indices(r.probes));
    regions.push_back(std::move(item));
  }
  json::Value result = json::Value::object();
  result.set("verdict", transform::verdict_name(certificate.verdict));
  result.set("probes", std::move(probes));
  result.set("regions", std::move(regions));
  return result;
}

json::Value Server::do_tune(const Request& req, const ModelEntry& entry) {
  const std::vector<patterns::Candidate>& candidates =
      entry.artifacts.detection->candidates;
  json::Value result = json::Value::object();
  if (candidates.empty()) {
    result.set("tuned", false);
    result.set("note", "no parallelization candidates to tune");
    return result;
  }
  rt::TuningConfig config = transform::default_tuning(candidates);
  if (config.size() == 0) {
    result.set("tuned", false);
    result.set("note", "candidates expose no tuning parameters");
    return result;
  }
  auto measure = [&](const rt::TuningConfig& candidate) {
    transform::ParallelPlanExecutor executor(*entry.artifacts.parsed,
                                             candidates, &candidate);
    const auto start = std::chrono::steady_clock::now();
    executor.run_main();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const auto tuner = tuning::make_linear_tuner();
  const tuning::TuningRun run = tuner->tune(
      config, measure, static_cast<std::size_t>(req.max_evals));
  if (rt::stop_requested()) throw rt::OperationCancelled("service request");
  result.set("tuned", true);
  result.set("evaluations", run.evaluations);
  result.set("best_score_s", run.best_score);
  result.set("best", run.best.serialize());
  return result;
}

Response Server::handle_health(const Request& req, bool full_stats) {
  Response resp;
  resp.id = req.id;
  resp.ok = true;
  resp.kind = request_kind_name(req.kind);

  const observe::MetricsSnapshot snap = observe::Registry::global().snapshot();
  auto counter = [&snap](const char* name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };
  auto gauge = [&snap](const char* name) -> observe::GaugeSnapshot {
    const auto it = snap.gauges.find(name);
    return it == snap.gauges.end() ? observe::GaugeSnapshot{} : it->second;
  };

  json::Value result = json::Value::object();
  result.set("uptime_ms",
             static_cast<std::int64_t>(ms_since(started_at_)));
  result.set("workers", options_.workers);

  json::Value queue = json::Value::object();
  const observe::GaugeSnapshot depth = gauge("service.queue.depth");
  queue.set("depth", depth.value);
  queue.set("high_water", depth.max);
  queue.set("limit", options_.queue_limit);
  result.set("queue", std::move(queue));

  const CacheStats cs = cache_.stats();
  json::Value cache = json::Value::object();
  cache.set("hits", cs.hits);
  cache.set("misses", cs.misses);
  cache.set("evictions", cs.evictions);
  cache.set("insert_failures", cs.insert_failures);
  cache.set("entries", cs.entries);
  cache.set("bytes", cs.bytes);
  cache.set("max_bytes", cs.max_bytes);
  result.set("cache", std::move(cache));

  json::Value requests = json::Value::object();
  requests.set("accepted", counter("service.requests.accepted"));
  requests.set("ok", counter("service.responses.ok"));
  requests.set("error", counter("service.responses.error"));
  requests.set("overloaded", counter("service.requests.overloaded"));
  requests.set("decode_errors", counter("service.requests.decode_errors"));
  requests.set("deadline_expired", counter("service.deadline_expired"));
  requests.set("write_failures", counter("service.responses.write_failures"));
  result.set("requests", std::move(requests));

  json::Value faults = json::Value::object();
  faults.set("captured", counter("fault.captured"));
  faults.set("rethrown", counter("fault.rethrown"));
  faults.set("fallbacks", counter("fault.fallbacks"));
  result.set("faults", std::move(faults));

  result.set("memory", observe::memory_summary());

  if (full_stats) {
    // Everything the service, runtime fault layer and front-end publish,
    // raw — the debugging view.
    json::Value counters = json::Value::object();
    for (const auto& [name, value] : snap.counters) {
      if (name.rfind("service.", 0) == 0 || name.rfind("fault.", 0) == 0 ||
          name.rfind("frontend.", 0) == 0 || name.rfind("mhp.", 0) == 0)
        counters.set(name, value);
    }
    result.set("counters", std::move(counters));
    json::Value gauges = json::Value::object();
    for (const auto& [name, g] : snap.gauges) {
      if (name.rfind("service.", 0) == 0 || name.rfind("frontend.", 0) == 0) {
        json::Value item = json::Value::object();
        item.set("value", g.value);
        item.set("max", g.max);
        gauges.set(name, std::move(item));
      }
    }
    result.set("gauges", std::move(gauges));
  }
  resp.result = std::move(result);
  return resp;
}

}  // namespace patty::service
