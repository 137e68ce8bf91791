#pragma once
// Patty-as-a-service: the resident analysis daemon.
//
// A Server owns a Unix-domain listener and turns the batch front-end into
// a long-running, multi-tenant analysis service. Robustness is the
// architecture, not a feature bolted on:
//
//  * Per-request fault domains. Every request executes under its own
//    StopSource + StopScope with a deadline on the shared
//    rt::DeadlineScheduler (one timer thread, not one per request). A
//    request that throws — user-source errors, injected failpoints,
//    runtime faults inside a parallel region — is answered with a
//    structured error response; it never takes down the daemon or a
//    sibling request. Parallel regions inside the request inherit its stop
//    token, so a deadline cancels nested work cooperatively.
//
//  * Admission control, shed-not-queue. The pending queue is bounded at
//    `queue_limit` (the high-water mark): a request arriving past the mark
//    is answered `overloaded` immediately instead of queueing without
//    bound, so latency stays bounded and memory cannot grow with offered
//    load. Every request runs the front-end sequentially on its worker
//    thread: the daemon's parallelism is across requests, so a deeper
//    queue never multiplies the work in flight.
//
//  * Content-hash model cache. Frozen semantic models are cached by source
//    hash (service/model_cache.hpp): resubmitting an unchanged program
//    skips parse + sema + detection entirely and answers with a
//    byte-identical detection fingerprint.
//
//  * Health that cannot lie. `health`/`stats` requests are answered inline
//    on the connection thread — never queued, never shed — and read the
//    same observe registry the runtime and cache publish into
//    (service.* / fault.* counters, queue and cache gauges,
//    observe::memory_summary), one source of truth for daemon, report and
//    tests.
//
// Failpoint sites on the daemon paths (service.accept, service.decode,
// service.cache.insert, service.response.write) let the PATTY_FAULTS
// harness inject throws/delays mid-request; the soak gate in
// tests/service_test.cpp drives ≥1000 mixed requests through armed sites
// and asserts every one is answered.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/model_cache.hpp"
#include "service/protocol.hpp"

namespace patty::service {

struct ServerOptions {
  /// Filesystem path of the Unix-domain socket (bound at start(), unlinked
  /// at stop()). Must fit sockaddr_un (~107 bytes).
  std::string socket_path;
  /// Request-executor threads. Each runs one request at a time, the
  /// front-end on its own thread; a tune's measured runs use the shared
  /// runtime pool.
  int workers = 2;
  /// Admission high-water mark: pending requests past this depth are shed
  /// with an immediate `overloaded` response.
  std::size_t queue_limit = 64;
  /// Semantic-model cache budget (bytes).
  std::size_t cache_bytes = 64u << 20;
  /// Deadline applied when a request does not carry one; 0 = none.
  std::int64_t default_deadline_ms = 0;
  /// Ceiling on every request's deadline: a longer one is clamped to it,
  /// and a request left with none (no deadline_ms, no default) gets it.
  /// 0 = no ceiling.
  std::int64_t max_deadline_ms = 60'000;
  /// Per-frame byte ceiling for this server.
  std::uint32_t max_frame_bytes = kMaxFrameBytes;
  /// Ceiling on any single blocking response write (SO_SNDTIMEO on
  /// accepted sockets): a client that stops reading cannot wedge a worker
  /// — or stop()'s drain — indefinitely; a timed-out write fails the
  /// connection instead. 0 = block without bound.
  long write_timeout_ms = 5'000;
  /// Turn the observe layer on at start() so fault.* counters and
  /// telemetry-gated instrumentation feed the health endpoint.
  bool enable_telemetry = true;
};

class Server {
 public:
  explicit Server(ServerOptions options);
  ~Server();  // stop()s if still running
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind, listen, spawn the accept loop and worker pool.
  /// Throws std::runtime_error when the socket cannot be set up.
  void start();

  /// Orderly shutdown: stop accepting, drain the pending queue (each
  /// drained request still gets a response), join every thread, unlink the
  /// socket. Idempotent.
  void stop();

  /// Async shutdown signal (used by the `shutdown` request and signal
  /// handlers): wakes wait_for_shutdown(). Does not block.
  void request_shutdown();

  /// Wait until request_shutdown() or `timeout`; true when shutdown was
  /// requested. Zero timeout = wait forever.
  bool wait_for_shutdown(
      std::chrono::milliseconds timeout = std::chrono::milliseconds(0));

  [[nodiscard]] bool running() const {
    return running_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const ServerOptions& options() const { return options_; }
  [[nodiscard]] ModelCache& cache() { return cache_; }
  /// Current pending-queue depth (tests).
  [[nodiscard]] std::size_t queue_depth() const;

 private:
  struct Conn;
  struct RequestError;

  /// One admitted request waiting for a worker.
  struct Pending {
    Request req;
    std::shared_ptr<Conn> conn;
    std::chrono::steady_clock::time_point enqueued{};
  };

  void accept_loop();
  void connection_loop(const std::shared_ptr<Conn>& conn);
  void worker_loop();
  void handle_frame(const std::shared_ptr<Conn>& conn, std::string payload);
  void respond(Conn& conn, const Response& resp);
  void reap_connections(bool all);

  Response execute(const Request& req);
  json::Value do_parse(const Request& req);
  std::shared_ptr<const ModelEntry> acquire_model(const Request& req,
                                                  bool* cached);
  json::Value do_detect(const Request& req, const ModelEntry& entry);
  json::Value do_certify(const Request& req, const ModelEntry& entry);
  json::Value do_tune(const Request& req, const ModelEntry& entry);
  Response handle_health(const Request& req, bool full_stats);

  ServerOptions options_;
  ModelCache cache_;
  std::chrono::steady_clock::time_point started_at_{};

  std::atomic<bool> running_{false};
  // Atomic: stop() retires the fd (exchange to -1) while the accept thread
  // is still reading it between accept() calls.
  std::atomic<int> listen_fd_{-1};
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  bool accepting_ = false;  // false during drain: admission answers
                            // shutting_down instead of queueing
  bool workers_quit_ = false;

  std::mutex conns_mutex_;
  std::vector<std::shared_ptr<Conn>> conns_;

  std::mutex shutdown_mutex_;
  std::condition_variable shutdown_cv_;
  bool shutdown_requested_ = false;
};

}  // namespace patty::service
