// Service-layer suite (`ctest -L service`): the resident analysis daemon
// end to end over its real Unix-domain socket. The contracts under test:
//
//   * wire format: strict JSON parsing, length-prefixed frames with a
//     bounds-checked length, request/response round-trips;
//   * per-request fault domains: interpreter faults, injected failpoints
//     and expired deadlines are answered as structured errors — the daemon
//     and its other connections keep running;
//   * admission control sheds, it does not queue: past the high-water mark
//     requests get an immediate `overloaded` response and the queue gauge
//     never exceeds the bound;
//   * the content-hash model cache serves counter-verified hits whose
//     detection fingerprints are byte-identical to the uncached path,
//     including after an eviction (the frozen-model rule), and its LRU byte
//     bound holds under concurrency;
//   * deadlines ride one shared DeadlineScheduler thread — 100 concurrent
//     deadlined requests must not cost 100 timer threads — and interrupt
//     one long work() call and a tune search mid-measurement;
//   * the fault-injection soak gate: ≥1000 mixed requests with failpoints
//     armed across daemon and runtime paths, every request answered, zero
//     crashes or hangs, service counters balanced at the end.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/semantic_model.hpp"
#include "corpus/corpus.hpp"
#include "observe/explain.hpp"
#include "observe/metrics.hpp"
#include "runtime/cancellation.hpp"
#include "service/client.hpp"
#include "service/json.hpp"
#include "service/model_cache.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/failpoint.hpp"

namespace patty::service {
namespace {

namespace fp = support::failpoint;
using namespace std::chrono_literals;

// --- sources -----------------------------------------------------------------

/// Small reduction loop: detects as a data-parallel candidate.
const char kSumSource[] = R"(
class Main {
  int main() {
    int s = 0;
    for (int i = 0; i < 16; i = i + 1) {
      s = s + i;
    }
    return s;
  }
}
)";

/// A second distinct program (different hash, different fingerprint).
const char kProductSource[] = R"(
class Main {
  int main() {
    int p = 1;
    for (int i = 1; i < 12; i = i + 1) {
      p = p * i;
    }
    return p;
  }
}
)";

/// Faults at runtime during the dynamic analysis (integer division by zero).
const char kDivZeroSource[] = R"(
class Main {
  int main() {
    int d = 0;
    return 1 / d;
  }
}
)";

/// Cost units of real CPU work that take about 1 ms (about 72 ns each).
constexpr int kWorkPerMs = 14'000;

/// `iters` calls of work(kWorkPerMs): the dynamic-analysis run burns about
/// `iters` milliseconds of one core and checks the ambient stop token (the
/// service's cooperative cancellation point) at every call and inside it.
std::string slow_source(int iters, int salt = 0) {
  std::ostringstream out;
  out << "class Main {\n  int main() {\n    int s = " << salt << ";\n"
      << "    for (int i = 0; i < " << iters << "; i = i + 1) {\n"
      << "      s = s + work(" << kWorkPerMs << ");\n    }\n"
      << "    return s;\n  }\n}\n";
  return out.str();
}

Request slow_request(std::int64_t id, int iters, int salt = 0) {
  Request req;
  req.id = id;
  req.kind = RequestKind::Detect;
  req.source = slow_source(iters, salt);
  req.no_cache = true;
  return req;
}

// --- helpers -----------------------------------------------------------------

std::string test_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/patty-svc-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Current thread count of this process (Linux; the suite is Linux-only
/// anyway since the protocol runs over AF_UNIX sockets).
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0)
      return std::atoi(line.c_str() + sizeof("Threads:") - 1);
  }
  return -1;
}

std::uint64_t counter_value(const char* name) {
  return observe::Registry::global().counter(name).value();
}

/// Starts one daemon on a fresh socket; stops and disarms in TearDown.
class ServiceTest : public ::testing::Test {
 protected:
  void start(ServerOptions options = {}) {
    options.socket_path = socket_path_;
    server_.emplace(std::move(options));
    server_->start();
  }

  Client connect() {
    Client client;
    std::string error;
    EXPECT_TRUE(client.connect(socket_path_, &error)) << error;
    return client;
  }

  void TearDown() override {
    if (server_) server_->stop();
    fp::disarm_all();
  }

  std::string socket_path_ = test_socket_path();
  std::optional<Server> server_;
};

Response must_call(Client& client, const Request& req) {
  std::string error;
  auto resp = client.call(req, &error);
  EXPECT_TRUE(resp.has_value()) << error;
  return resp.value_or(Response{});
}

// --- JSON --------------------------------------------------------------------

TEST(ServiceJsonTest, RoundTripPreservesStructureAndOrder) {
  json::Value v = json::Value::object();
  v.set("int", std::int64_t{-42});
  v.set("big", std::int64_t{1} << 60);
  v.set("dbl", 2.5);
  v.set("str", "line\nbreak \"quoted\" \x01");
  v.set("yes", true);
  v.set("null", json::Value());
  json::Value arr = json::Value::array();
  arr.push_back(1);
  arr.push_back("two");
  v.set("arr", std::move(arr));

  const std::string wire = v.dump();
  EXPECT_EQ(wire.find('\n'), std::string::npos);  // frames stay one line
  std::string error;
  const auto back = json::Value::parse(wire, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->dump(), wire);
  EXPECT_EQ(back->at("int").as_int(), -42);
  EXPECT_EQ(back->at("big").as_int(), std::int64_t{1} << 60);
  EXPECT_DOUBLE_EQ(back->at("dbl").as_double(), 2.5);
  EXPECT_EQ(back->at("str").as_string(), "line\nbreak \"quoted\" \x01");
  EXPECT_TRUE(back->at("yes").as_bool());
  EXPECT_TRUE(back->at("null").is_null());
  EXPECT_EQ(back->at("arr").items().size(), 2u);
  EXPECT_EQ(back->at("missing").kind(), json::Value::Kind::Null);
}

TEST(ServiceJsonTest, DecodesEscapesAndUnicode) {
  const auto v = json::Value::parse(R"("a\u00e9\t\\\u0041")");
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(v->as_string(), "a\xc3\xa9\t\\A");
}

TEST(ServiceJsonTest, RejectsMalformedInput) {
  for (const char* bad : {
           "",                    // empty
           "{",                   // truncated object
           "[1,]",                // trailing comma
           "{\"a\":1} extra",     // trailing garbage
           "\"raw\nnewline\"",    // unescaped control char
           "01",                  // leading zero
           "nul",                 // truncated keyword
           "\"\\u12\"",           // truncated escape
           "{\"a\" 1}",           // missing colon
       }) {
    std::string error;
    EXPECT_FALSE(json::Value::parse(bad, &error).has_value())
        << "accepted: " << bad;
    EXPECT_FALSE(error.empty());
  }
}

TEST(ServiceJsonTest, DepthLimitStopsRecursion) {
  std::string deep(json::Value::kMaxDepth + 8, '[');
  deep += std::string(json::Value::kMaxDepth + 8, ']');
  EXPECT_FALSE(json::Value::parse(deep).has_value());
  std::string ok(json::Value::kMaxDepth - 1, '[');
  ok += std::string(json::Value::kMaxDepth - 1, ']');
  EXPECT_TRUE(json::Value::parse(ok).has_value());
}

// --- frames ------------------------------------------------------------------

TEST(ServiceFrameTest, RoundTripOverSocketpair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::string error;
  const std::string payload = "{\"id\":1}";
  ASSERT_TRUE(write_frame(fds[0], payload, &error)) << error;
  std::string got;
  EXPECT_EQ(read_frame(fds[1], &got, &error), 1) << error;
  EXPECT_EQ(got, payload);
  // Clean EOF at a frame boundary reads as 0, not an error.
  ::close(fds[0]);
  EXPECT_EQ(read_frame(fds[1], &got, &error), 0);
  ::close(fds[1]);
}

TEST(ServiceFrameTest, OversizedLengthRejectedBeforeAllocation) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // A hostile length prefix far past the bound, with no body behind it.
  const unsigned char prefix[4] = {0xff, 0xff, 0xff, 0xff};
  ASSERT_EQ(::send(fds[0], prefix, 4, 0), 4);
  std::string got;
  std::string error;
  EXPECT_EQ(read_frame(fds[1], &got, &error, /*max_bytes=*/1024), -1);
  EXPECT_NE(error.find("frame"), std::string::npos) << error;
  // Writing an over-limit payload is refused locally, too.
  EXPECT_FALSE(write_frame(fds[0], std::string(2048, 'x'), &error, 1024));
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServiceFrameTest, MidFrameEofIsAnError) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const unsigned char prefix[4] = {0, 0, 0, 10};  // promises 10 bytes
  ASSERT_EQ(::send(fds[0], prefix, 4, 0), 4);
  ASSERT_EQ(::send(fds[0], "abc", 3, 0), 3);
  ::close(fds[0]);
  std::string got;
  std::string error;
  EXPECT_EQ(read_frame(fds[1], &got, &error), -1);
  ::close(fds[1]);
}

// --- protocol ----------------------------------------------------------------

TEST(ServiceProtocolTest, RequestRoundTrip) {
  Request req;
  req.id = 99;
  req.kind = RequestKind::Tune;
  req.source = "class Main { int main() { return 1; } }";
  req.deadline_ms = 1234;
  req.optimistic = false;
  req.no_cache = true;
  req.max_evals = 3;
  std::string error;
  const auto back = Request::from_json(req.to_json(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->id, req.id);
  EXPECT_EQ(back->kind, req.kind);
  EXPECT_EQ(back->source, req.source);
  EXPECT_EQ(back->deadline_ms, req.deadline_ms);
  EXPECT_EQ(back->optimistic, req.optimistic);
  EXPECT_EQ(back->no_cache, req.no_cache);
  EXPECT_EQ(back->max_evals, req.max_evals);

  // An older client still asks for the removed nested-parallel front-end;
  // the decoder ignores the key and the request decodes unchanged.
  json::Value old = req.to_json();
  old.set("parallel", true);
  const auto old_back = Request::from_json(old, &error);
  ASSERT_TRUE(old_back.has_value()) << error;
  EXPECT_EQ(old_back->to_json().dump(), req.to_json().dump());
}

TEST(ServiceProtocolTest, RequestValidationRejectsBadInput) {
  auto decode = [](const char* text) {
    std::string error;
    const auto doc = json::Value::parse(text);
    EXPECT_TRUE(doc.has_value()) << text;
    const auto req = Request::from_json(*doc, &error);
    EXPECT_FALSE(req.has_value()) << text;
    return error;
  };
  EXPECT_NE(decode(R"({"id":1})").find("kind"), std::string::npos);
  EXPECT_NE(decode(R"({"id":1,"kind":"zap"})").find("zap"), std::string::npos);
  EXPECT_NE(decode(R"({"id":1,"kind":"detect"})").find("source"),
            std::string::npos);
  EXPECT_FALSE(decode(R"({"id":1,"kind":"parse","source":"x",
                          "deadline_ms":-5})")
                   .empty());
  // A budget out of its range names the field and the bound.
  EXPECT_EQ(decode(R"({"id":1,"kind":"parse","source":"x",
                       "deadline_ms":-1})"),
            "'deadline_ms' must be >= 0");
  EXPECT_EQ(decode(R"({"id":1,"kind":"tune","source":"x",
                       "max_evals":0})"),
            "'max_evals' must be >= 1");
  // Numbers past the int64 range reach the decoder as doubles; each is a
  // bad request that names its field, never a wrapped-around integer.
  EXPECT_NE(decode(R"({"id":1e300,"kind":"parse","source":"x"})")
                .find("'id'"),
            std::string::npos);
  EXPECT_NE(decode(R"({"id":1,"kind":"parse","source":"x",
                       "deadline_ms":1e300})")
                .find("'deadline_ms'"),
            std::string::npos);
  EXPECT_NE(decode(R"({"id":1,"kind":"tune","source":"x",
                       "max_evals":99999999999999999999})")
                .find("'max_evals'"),
            std::string::npos);
}

TEST(ServiceProtocolTest, ResponseRoundTripBothShapes) {
  Response ok;
  ok.id = 5;
  ok.ok = true;
  ok.kind = "detect";
  ok.cached = true;
  ok.result.set("fingerprint", "abc");
  std::string error;
  auto back = Response::from_json(ok.to_json(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_TRUE(back->ok);
  EXPECT_TRUE(back->cached);
  EXPECT_EQ(back->result.at("fingerprint").as_string(), "abc");

  const Response fail =
      Response::failure(7, ErrorCode::Overloaded, "queue full", "detect");
  back = Response::from_json(fail.to_json(), &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_FALSE(back->ok);
  EXPECT_EQ(back->error_code, ErrorCode::Overloaded);
  EXPECT_EQ(back->error_message, "queue full");
  EXPECT_EQ(back->kind, "detect");
}

// --- deadline scheduler ------------------------------------------------------

TEST(DeadlineSchedulerTest, FiresAndCancels) {
  auto& sched = rt::DeadlineScheduler::global();
  std::atomic<int> fired{0};
  sched.schedule(5ms, [&fired] { fired.fetch_add(1); });
  const auto cancelled = sched.schedule(60'000ms, [&fired] { fired = 99; });
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (fired.load() == 0 && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_EQ(fired.load(), 1);
  EXPECT_TRUE(sched.cancel(cancelled));   // still pending: cancel wins
  EXPECT_FALSE(sched.cancel(cancelled));  // second cancel is a no-op
}

TEST(DeadlineSchedulerTest, ScopedDeadlineRequestsStop) {
  rt::StopSource source;
  rt::ScopedDeadline deadline(source, 5ms);
  const auto until = std::chrono::steady_clock::now() + 5s;
  while (!source.token().stop_requested() &&
         std::chrono::steady_clock::now() < until)
    std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(source.token().stop_requested());
  EXPECT_TRUE(deadline.expired());
}

TEST(DeadlineSchedulerTest, DestructionCancelsBeforeExpiry) {
  rt::StopSource source;
  { rt::ScopedDeadline deadline(source, 60'000ms); }
  std::this_thread::sleep_for(20ms);
  EXPECT_FALSE(source.token().stop_requested());
}

/// Thread-per-deadline regression: 100 concurrent armed deadlines must
/// share the scheduler's single timer thread, not spawn one thread each.
TEST(DeadlineSchedulerTest, HundredDeadlinesShareOneThread) {
  (void)rt::DeadlineScheduler::global();  // scheduler thread already up
  const int before = process_threads();
  ASSERT_GT(before, 0);
  std::vector<rt::StopSource> sources(100);
  {
    std::vector<rt::ScopedDeadline> deadlines;
    deadlines.reserve(sources.size());
    for (auto& source : sources) deadlines.emplace_back(source, 60'000ms);
    const int during = process_threads();
    EXPECT_LE(during, before + 2)
        << "100 armed deadlines should not cost ~100 watchdog threads";
    EXPECT_GE(rt::DeadlineScheduler::global().pending(), 100u);
  }
  for (auto& source : sources) EXPECT_FALSE(source.token().stop_requested());
}

// --- model cache -------------------------------------------------------------

std::shared_ptr<ModelEntry> fake_entry(std::size_t bytes) {
  auto entry = std::make_shared<ModelEntry>();
  entry->bytes = bytes;
  return entry;
}

TEST(ModelCacheTest, LruEvictionKeepsByteBound) {
  ModelCache cache(1000);
  cache.insert(1, fake_entry(400));
  cache.insert(2, fake_entry(400));
  EXPECT_TRUE(cache.lookup(1));  // refresh: key 2 is now the LRU victim
  cache.insert(3, fake_entry(400));
  EXPECT_TRUE(cache.lookup(1));
  EXPECT_FALSE(cache.lookup(2));
  EXPECT_TRUE(cache.lookup(3));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, stats.max_bytes);
  // An evicted entry outlives the cache's reference while held.
  const auto held = cache.lookup(3);
  cache.insert(4, fake_entry(900));  // evicts everything else
  EXPECT_LE(cache.stats().bytes, 1000u);
  EXPECT_EQ(held->bytes, 400u);
}

TEST(ModelCacheTest, BudgetForNFullEntriesEvictsAtNPlusOne) {
  // A real front-end entry counts what it pins: the profile, effects, call
  // graph and maps too, not only the arenas and the source.
  const corpus::CorpusProgram& program = corpus::raytracer();
  auto entry = std::make_shared<ModelEntry>();
  corpus::FrontendConfig config;
  config.adopt = [&entry](corpus::ProgramArtifacts&& artifacts) {
    entry->artifacts = std::move(artifacts);
  };
  corpus::evaluate_corpus({&program}, config);
  const corpus::ProgramArtifacts& a = entry->artifacts;
  ASSERT_TRUE(a.model && a.model->profile());
  entry->bytes = entry_bytes(a, program.source.size());
  const std::size_t arenas_source_and_profile =
      program.source.size() + a.fingerprint.size() +
      a.parsed->arena.bytes_reserved() + a.model->side_bytes_reserved() +
      a.model->profile()->memory_footprint();
  EXPECT_GT(entry->bytes, arenas_source_and_profile);

  // Resubmitted with new content hashes (one key each), as misses are.
  constexpr std::uint64_t kN = 3;
  ModelCache cache(kN * entry->bytes);
  for (std::uint64_t key = 0; key < kN; ++key) cache.insert(key, entry);
  EXPECT_EQ(cache.stats().evictions, 0u);
  EXPECT_EQ(cache.stats().entries, kN);
  cache.insert(kN, entry);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, kN);
  EXPECT_FALSE(cache.lookup(0));
}

TEST(ModelCacheTest, OversizeEntryIsRefusedNotAdmitted) {
  ModelCache cache(100);
  cache.insert(1, fake_entry(50));
  cache.insert(2, fake_entry(1000));  // larger than the whole budget
  EXPECT_FALSE(cache.lookup(2));
  EXPECT_TRUE(cache.lookup(1));  // and it did not evict the resident entry
  EXPECT_LE(cache.stats().bytes, 100u);
}

TEST(ModelCacheTest, ReplacingSameKeyDropsOldFootprint) {
  ModelCache cache(1000);
  cache.insert(1, fake_entry(600));
  cache.insert(1, fake_entry(200));
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.bytes, 200u);
}

TEST(ModelCacheTest, KeySeparatesDetectorModes) {
  EXPECT_NE(ModelCache::key(kSumSource, true), ModelCache::key(kSumSource, false));
  EXPECT_EQ(ModelCache::key(kSumSource, true), ModelCache::key(kSumSource, true));
  EXPECT_NE(ModelCache::key(kSumSource, true),
            ModelCache::key(kProductSource, true));
}

TEST(ModelCacheTest, InsertFailpointIsSwallowed) {
  ModelCache cache(1000);
  fp::arm("service.cache.insert", {fp::ActionKind::Throw, 1, 0});
  cache.insert(1, fake_entry(100));
  fp::disarm_all();
  EXPECT_FALSE(cache.lookup(1));  // not cached...
  EXPECT_EQ(cache.stats().insert_failures, 1u);  // ...but counted
  cache.insert(1, fake_entry(100));  // and the cache still works
  EXPECT_TRUE(cache.lookup(1));
}

/// Concurrent hit/miss/evict stress; run under TSan by the service label.
TEST(ModelCacheTest, ConcurrentStressHoldsInvariants) {
  ModelCache cache(64 * 1024);
  std::atomic<bool> bound_violated{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, &bound_violated, t] {
      for (int i = 0; i < 400; ++i) {
        const auto key = static_cast<std::uint64_t>((t * 400 + i) % 37);
        if (i % 3 == 0) cache.insert(key, fake_entry(1024 * (1 + key % 8)));
        if (const auto hit = cache.lookup(key))
          if (hit->bytes == 0) bound_violated = true;
        if (cache.stats().bytes > 64 * 1024) bound_violated = true;
        if (i % 97 == 0) cache.clear();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_FALSE(bound_violated.load());
  EXPECT_LE(cache.stats().bytes, 64u * 1024u);
}

TEST(ServiceFrameTest, SendTimeoutBoundsABlockedWrite) {
  // SO_SNDTIMEO — set by the daemon on every accepted connection — turns a
  // peer that stopped reading into a bounded write failure instead of a
  // worker (or stop()'s drain) blocked in send() forever.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  timeval tv{};
  tv.tv_usec = 100 * 1000;  // 100 ms
  ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)),
            0);
  const int small = 1;  // kernel clamps to its floor; keeps buffering small
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  const std::string payload(4u << 20, 'x');  // far past any socket buffering
  std::string error;
  const auto begin = std::chrono::steady_clock::now();
  EXPECT_FALSE(write_frame(fds[0], payload, &error));
  EXPECT_LT(std::chrono::steady_clock::now() - begin, 30s);
  EXPECT_NE(error.find("timed out"), std::string::npos) << error;
  ::close(fds[0]);
  ::close(fds[1]);
}

// --- daemon basics -----------------------------------------------------------

TEST_F(ServiceTest, ParseAndDetectBasics) {
  start();
  Client client = connect();
  Request req;
  req.id = 1;
  req.kind = RequestKind::Parse;
  req.source = kSumSource;
  Response resp = must_call(client, req);
  EXPECT_TRUE(resp.ok) << resp.error_message;
  EXPECT_EQ(resp.kind, "parse");
  EXPECT_EQ(resp.result.at("classes").as_int(), 1);
  EXPECT_EQ(resp.result.at("methods").as_int(), 1);

  req.id = 2;
  req.kind = RequestKind::Detect;
  resp = must_call(client, req);
  EXPECT_TRUE(resp.ok) << resp.error_message;
  EXPECT_FALSE(resp.result.at("fingerprint").as_string().empty());
  ASSERT_GE(resp.result.at("candidates").items().size(), 1u);
  EXPECT_EQ(resp.result.at("candidates").items()[0].at("pattern").as_string(),
            "data-parallel loop");
}

TEST_F(ServiceTest, StartRefusesToStealALiveDaemonsSocket) {
  start();
  ServerOptions options;
  options.socket_path = socket_path_;
  Server second(options);
  EXPECT_THROW(second.start(), std::runtime_error);
  // The live daemon kept its endpoint: its socket was not unlinked.
  Client client = connect();
  Request req;
  req.id = 1;
  req.kind = RequestKind::Health;
  EXPECT_TRUE(must_call(client, req).ok);
}

TEST_F(ServiceTest, StartReclaimsAStaleSocket) {
  // A daemon that died without cleanup leaves a bound-but-dead socket file
  // behind: bind without listening, then close the fd.
  const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(stale, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ASSERT_LT(socket_path_.size(), sizeof(addr.sun_path));
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);
  ASSERT_EQ(::bind(stale, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ::close(stale);
  start();  // probe-connect gets ECONNREFUSED → stale → reclaimed
  Client client = connect();
  Request req;
  req.id = 1;
  req.kind = RequestKind::Health;
  EXPECT_TRUE(must_call(client, req).ok);
}

TEST_F(ServiceTest, LateResponseAfterClientHangupIsHarmless) {
  // A worker may finish a request after its client hung up. The hung-up
  // connection's fd stays reserved until that response is written (~Conn
  // closes it), so the late write can never land in a fd recycled for a
  // newly accepted sibling.
  start();
  {
    Client doomed = connect();
    std::string error;
    ASSERT_TRUE(doomed.send(slow_request(1, /*iters=*/150), &error)) << error;
  }  // ~Client closes the socket with the response still being computed
  // Siblings connected while the slow response is in flight are unaffected.
  Client client = connect();
  Request req;
  req.id = 2;
  req.kind = RequestKind::Detect;
  req.source = kSumSource;
  const Response resp = must_call(client, req);
  EXPECT_TRUE(resp.ok) << resp.error_message;
  // stop() drains the slow request; its write failure is counted, the
  // daemon survives (TearDown stops cleanly).
}

TEST_F(ServiceTest, DetectFingerprintMatchesDirectFrontend) {
  // The reference: the same single-program corpus evaluation the daemon
  // runs, executed directly in-process.
  corpus::CorpusProgram program;
  program.name = "request";
  program.source = kSumSource;
  const corpus::CorpusReport direct =
      corpus::evaluate_corpus({&program}, corpus::FrontendConfig{});
  ASSERT_EQ(direct.programs.size(), 1u);
  ASSERT_TRUE(direct.programs[0].error.empty()) << direct.programs[0].error;

  start();
  Client client = connect();
  Request req;
  req.id = 1;
  req.kind = RequestKind::Detect;
  req.source = kSumSource;
  const Response uncached = must_call(client, req);
  ASSERT_TRUE(uncached.ok) << uncached.error_message;
  EXPECT_FALSE(uncached.cached);
  EXPECT_EQ(uncached.result.at("fingerprint").as_string(),
            direct.programs[0].fingerprint);

  // The cached answer must be byte-identical to the uncached one.
  req.id = 2;
  const Response cached = must_call(client, req);
  ASSERT_TRUE(cached.ok);
  EXPECT_TRUE(cached.cached);
  EXPECT_EQ(cached.result.at("fingerprint").as_string(),
            direct.programs[0].fingerprint);

  // And so must a cache-bypassing run.
  req.id = 3;
  req.no_cache = true;
  const Response bypass = must_call(client, req);
  ASSERT_TRUE(bypass.ok);
  EXPECT_FALSE(bypass.cached);
  EXPECT_EQ(bypass.result.at("fingerprint").as_string(),
            direct.programs[0].fingerprint);

  // An older client's `"parallel": true` is ignored: the request runs the
  // same front-end and gets the same fingerprint.
  json::Value old = req.to_json();
  old.set("id", std::int64_t{4});
  old.set("parallel", true);
  std::string error;
  ASSERT_TRUE(client.send_raw(old.dump(), &error)) << error;
  std::string payload;
  ASSERT_EQ(client.recv_raw(&payload, &error), 1) << error;
  const auto frame = json::Value::parse(payload, &error);
  ASSERT_TRUE(frame.has_value()) << error;
  EXPECT_EQ(frame->find("degraded"), nullptr) << payload;
  const auto legacy = Response::from_json(*frame, &error);
  ASSERT_TRUE(legacy.has_value()) << error;
  ASSERT_TRUE(legacy->ok) << legacy->error_message;
  EXPECT_EQ(legacy->id, 4);
  EXPECT_FALSE(legacy->cached);
  EXPECT_EQ(legacy->result.at("fingerprint").as_string(),
            direct.programs[0].fingerprint);
}

TEST_F(ServiceTest, OldClientSleepFieldsAreIgnored) {
  // A client written for the removed emulated-multicore mode still sends
  // its two keys (a flag and a sleep per cost unit). The decoder ignores
  // unknown keys, so the request runs on real CPU: 2000 work(1) calls take
  // well under a millisecond here, where 1 ms per unit would have slept
  // for 2 s.
  start();
  Client client = connect();
  Request req;
  req.id = 1;
  req.kind = RequestKind::Detect;
  req.source = R"(
class Main {
  int main() {
    int s = 0;
    for (int i = 0; i < 2000; i = i + 1) {
      s = s + work(1);
    }
    return s;
  }
}
)";
  req.no_cache = true;
  const Response plain = must_call(client, req);
  ASSERT_TRUE(plain.ok) << plain.error_message;

  json::Value old = req.to_json();
  old.set("id", std::int64_t{2});
  const std::string key = std::string("work_") + "sleep";
  old.set(key + "s", true);
  old.set(key + "_ns", std::int64_t{1'000'000});
  std::string error;
  const auto start_time = std::chrono::steady_clock::now();
  ASSERT_TRUE(client.send_raw(old.dump(), &error)) << error;
  const auto resp = client.recv(&error);
  const auto elapsed = std::chrono::steady_clock::now() - start_time;
  ASSERT_TRUE(resp.has_value()) << error;
  ASSERT_TRUE(resp->ok) << resp->error_message;
  EXPECT_EQ(resp->id, 2);
  EXPECT_FALSE(resp->cached);
  EXPECT_EQ(resp->result.at("fingerprint").as_string(),
            plain.result.at("fingerprint").as_string());
  EXPECT_LT(elapsed, 1s) << "the request slept through its work() calls";
}

TEST_F(ServiceTest, CacheHitIsCounterVerified) {
  start();
  Client client = connect();
  Request req;
  req.id = 1;
  req.kind = RequestKind::Detect;
  req.source = kProductSource;
  EXPECT_FALSE(must_call(client, req).cached);
  const CacheStats before = server_->cache().stats();
  req.id = 2;
  EXPECT_TRUE(must_call(client, req).cached);
  const CacheStats after = server_->cache().stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_GE(after.entries, 1u);
}

TEST_F(ServiceTest, EvictionPreservesFrozenModelFingerprint) {
  // A cache budget far below one entry's footprint: every insert evicts,
  // every request rebuilds. The frozen-model rule demands the rebuilt
  // model's fingerprint be byte-identical to the first.
  ServerOptions options;
  options.cache_bytes = 64;
  start(options);
  Client client = connect();
  Request req;
  req.id = 1;
  req.kind = RequestKind::Detect;
  req.source = kSumSource;
  const Response first = must_call(client, req);
  ASSERT_TRUE(first.ok) << first.error_message;
  req.id = 2;
  const Response second = must_call(client, req);
  ASSERT_TRUE(second.ok);
  EXPECT_FALSE(second.cached);  // the entry could not stay resident
  EXPECT_EQ(second.result.at("fingerprint").as_string(),
            first.result.at("fingerprint").as_string());
  const CacheStats stats = server_->cache().stats();
  EXPECT_GE(stats.evictions, 2u);
  EXPECT_LE(stats.bytes, options.cache_bytes);
}

TEST_F(ServiceTest, CertifyAndTuneAnswer) {
  start();
  Client client = connect();
  Request req;
  req.id = 1;
  req.kind = RequestKind::Certify;
  req.source = kSumSource;
  Response resp = must_call(client, req);
  EXPECT_TRUE(resp.ok) << resp.error_message;
  EXPECT_FALSE(resp.result.at("verdict").as_string().empty());

  req.id = 2;
  req.kind = RequestKind::Tune;
  req.max_evals = 2;
  resp = must_call(client, req);
  EXPECT_TRUE(resp.ok) << resp.error_message;
  EXPECT_TRUE(resp.result.at("tuned").as_bool());
  EXPECT_GE(resp.result.at("evaluations").as_int(), 1);
}

TEST_F(ServiceTest, CertifyAnswersPerRegion) {
  // A clean map kernel and the indirect scatter the optimistic detector
  // wrongly claims: each region carries its own verdict, and the program's
  // is the worst of them.
  const char source[] = R"(
class P {
  int[] a;
  int[] src;
  int[] dst;
  int[] idx;
  void fill(int i) {
    if (i < 16) { a[i] = i; src[i] = i; idx[i] = i; fill(i + 1); }
  }
  void Map() {
    for (int i = 0; i < 16; i++) { a[i] = a[i] * 2; }
  }
  void Scatter() {
    for (int i = 0; i < 16; i++) {
      int j = idx[i];
      dst[j] = src[i] + 2;
    }
  }
  void main() {
    a = new int[16];
    src = new int[16];
    dst = new int[16];
    idx = new int[16];
    fill(0);
    Map();
    Scatter();
    print(a[0] + dst[0]);
  }
}
)";
  start();
  Client client = connect();
  Request req;
  req.id = 1;
  req.kind = RequestKind::Certify;
  req.source = source;
  const Response resp = must_call(client, req);
  ASSERT_TRUE(resp.ok) << resp.error_message;
  EXPECT_EQ(resp.result.at("verdict").as_string(), "residue-raced");

  const json::Value::Array& probes = resp.result.at("probes").items();
  ASSERT_FALSE(probes.empty());
  for (const json::Value& probe : probes) {
    EXPECT_TRUE(probe.at("raced").as_bool());
    EXPECT_EQ(probe.at("schedules").as_int(-1), 0);  // decided directly
    EXPECT_EQ(probe.at("detail").as_string().rfind("read-write race on", 0),
              0u);
  }

  // Regions come in candidate order; the anchors name the kernels' lines.
  const json::Value::Array& regions = resp.result.at("regions").items();
  ASSERT_EQ(regions.size(), 2u);
  const auto region_at = [&regions](const std::string& line) {
    for (const json::Value& r : regions)
      if (r.at("anchor").as_string().rfind(line + ":", 0) == 0) return r;
    return json::Value();
  };
  const json::Value map = region_at("11");
  EXPECT_EQ(map.at("verdict").as_string(), "certified-static");
  EXPECT_TRUE(map.at("residue_pairs").is_array());
  EXPECT_TRUE(map.at("residue_pairs").items().empty());
  EXPECT_TRUE(map.at("probes").is_array());
  EXPECT_TRUE(map.at("probes").items().empty());
  const json::Value scatter = region_at("14");
  EXPECT_EQ(scatter.at("verdict").as_string(), "residue-raced");
  const json::Value::Array& pairs = scatter.at("residue_pairs").items();
  const json::Value::Array& indices = scatter.at("probes").items();
  ASSERT_EQ(indices.size(), probes.size());
  ASSERT_EQ(pairs.size(), indices.size());
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const json::Value& probe =
        probes.at(static_cast<std::size_t>(indices[k].as_int()));
    EXPECT_EQ(probe.at("label").as_string().rfind(
                  "pair" + std::to_string(pairs[k].as_int()) + ":", 0),
              0u);
  }
}

// --- fault domains -----------------------------------------------------------

TEST_F(ServiceTest, MalformedRequestsAreAnsweredNotFatal) {
  start();
  Client client = connect();
  std::string error;

  // Frame holds garbage JSON: structured bad_request, id 0.
  ASSERT_TRUE(client.send_raw("{not json", &error)) << error;
  auto resp = client.recv(&error);
  ASSERT_TRUE(resp.has_value()) << error;
  EXPECT_FALSE(resp->ok);
  EXPECT_EQ(resp->error_code, ErrorCode::BadRequest);

  // Valid JSON, invalid request.
  ASSERT_TRUE(client.send_raw(R"({"id":7,"kind":"zap"})", &error));
  resp = client.recv(&error);
  ASSERT_TRUE(resp.has_value()) << error;
  EXPECT_FALSE(resp->ok);
  EXPECT_EQ(resp->id, 7);
  EXPECT_EQ(resp->error_code, ErrorCode::BadRequest);

  // The same connection still serves good requests afterwards.
  Request req;
  req.id = 8;
  req.kind = RequestKind::Parse;
  req.source = kSumSource;
  EXPECT_TRUE(must_call(client, req).ok);
}

TEST_F(ServiceTest, SourceFaultsAreIsolatedToTheirRequest) {
  start();
  Client client = connect();

  Request bad;
  bad.id = 1;
  bad.kind = RequestKind::Detect;
  bad.source = "class Main { int main() { return }";  // parse error
  Response resp = must_call(client, bad);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_code, ErrorCode::ParseError);

  bad.id = 2;
  bad.source = kDivZeroSource;  // faults in the dynamic analysis
  resp = must_call(client, bad);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_code, ErrorCode::Analysis);
  EXPECT_NE(resp.error_message.find("division"), std::string::npos)
      << resp.error_message;

  // A sibling request on the same daemon is untouched.
  Request good;
  good.id = 3;
  good.kind = RequestKind::Detect;
  good.source = kSumSource;
  resp = must_call(client, good);
  EXPECT_TRUE(resp.ok) << resp.error_message;
  EXPECT_TRUE(server_->running());
}

TEST_F(ServiceTest, DeadlineExpiryIsAStructuredError) {
  start();
  Client client = connect();
  Request req = slow_request(1, /*iters=*/4000);  // ~4 s uncancelled
  req.deadline_ms = 80;
  const auto start_time = std::chrono::steady_clock::now();
  const Response resp = must_call(client, req);
  const auto elapsed = std::chrono::steady_clock::now() - start_time;
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_code, ErrorCode::Deadline);
  EXPECT_LT(elapsed, 3s) << "deadline did not cancel the slow interpreter run";
  // The daemon is fine.
  Request good;
  good.id = 2;
  good.kind = RequestKind::Parse;
  good.source = kSumSource;
  EXPECT_TRUE(must_call(client, good).ok);
}

TEST_F(ServiceTest, DeadlineInterruptsLongWork) {
  // One work() call worth about 20 hours of CPU: the deadline must cut it
  // short from inside the call, and the worker must be free again.
  start();
  Client client = connect();
  Request req;
  req.id = 1;
  req.kind = RequestKind::Detect;
  req.source = "class Main { int main() { return work(1000000000000); } }";
  req.no_cache = true;
  req.deadline_ms = 50;
  const auto start_time = std::chrono::steady_clock::now();
  const Response resp = must_call(client, req);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_code, ErrorCode::Deadline) << resp.error_message;
  EXPECT_LT(std::chrono::steady_clock::now() - start_time, 2s);
  Request next;
  next.id = 2;
  next.kind = RequestKind::Detect;
  next.source = kSumSource;
  const Response answered = must_call(client, next);
  EXPECT_TRUE(answered.ok) << answered.error_message;
}

TEST_F(ServiceTest, DeadlineCeilingBoundsRequestWithoutDeadline) {
  // The request carries no deadline_ms and the daemon has no default one:
  // the ceiling still bounds it. Uncancelled, the call runs about 20 s.
  ServerOptions options;
  options.max_deadline_ms = 100;
  start(options);
  Client client = connect();
  Request req;
  req.id = 1;
  req.kind = RequestKind::Detect;
  req.source = "class Main { int main() { return work(300000000); } }";
  req.no_cache = true;
  const auto start_time = std::chrono::steady_clock::now();
  const Response resp = must_call(client, req);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_code, ErrorCode::Deadline) << resp.error_message;
  EXPECT_LT(std::chrono::steady_clock::now() - start_time, 2s);
  Request next;
  next.id = 2;
  next.kind = RequestKind::Detect;
  next.source = kSumSource;
  const Response answered = must_call(client, next);
  EXPECT_TRUE(answered.ok) << answered.error_message;
}

TEST_F(ServiceTest, TuneDeadlineCancelsSearchMidMeasurement) {
  // The model is cached first, so the deadline lands in the tuner's first
  // measurement; each measurement alone (about 200 ms) outlasts the
  // deadline.
  start();
  Client client = connect();
  Request detect = slow_request(1, /*iters=*/200);
  detect.no_cache = false;
  ASSERT_TRUE(must_call(client, detect).ok);

  Request tune = slow_request(2, /*iters=*/200);
  tune.kind = RequestKind::Tune;
  tune.no_cache = false;
  tune.max_evals = 4;
  tune.deadline_ms = 50;
  const auto start_time = std::chrono::steady_clock::now();
  const Response resp = must_call(client, tune);
  EXPECT_TRUE(resp.cached);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.error_code, ErrorCode::Deadline) << resp.error_message;
  EXPECT_LT(std::chrono::steady_clock::now() - start_time, 500ms);
}

TEST_F(ServiceTest, WriteFaultKillsOnlyThatConnection) {
  start();
  Client victim = connect();
  Client bystander = connect();
  const std::uint64_t failures_before =
      counter_value("service.responses.write_failures");
  fp::arm("service.response.write", {fp::ActionKind::Throw, 1, 0});
  Request req;
  req.id = 1;
  req.kind = RequestKind::Parse;
  req.source = kSumSource;
  std::string error;
  ASSERT_TRUE(victim.send(req, &error)) << error;
  // The injected write fault drops the victim's connection mid-response.
  EXPECT_FALSE(victim.recv(&error).has_value());
  fp::disarm_all();
  EXPECT_GE(counter_value("service.responses.write_failures"),
            failures_before + 1);
  // The bystander connection and the daemon are untouched.
  req.id = 2;
  EXPECT_TRUE(must_call(bystander, req).ok);
  EXPECT_TRUE(server_->running());
}

TEST_F(ServiceTest, AcceptFaultLosesOnlyThatConnection) {
  start();
  fp::arm("service.accept", {fp::ActionKind::Throw, 1, 0});
  Client dropped;
  std::string error;
  // connect() itself succeeds (the fault fires daemon-side, post-accept);
  // the daemon then hangs up immediately.
  if (dropped.connect(socket_path_, &error)) {
    std::string payload;
    EXPECT_LE(dropped.recv_raw(&payload, &error), 0);
  }
  fp::disarm_all();
  EXPECT_GE(counter_value("service.accept_faults"), 1u);
  Client ok = connect();
  Request req;
  req.id = 1;
  req.kind = RequestKind::Parse;
  req.source = kSumSource;
  EXPECT_TRUE(must_call(ok, req).ok);
}

/// Thread-per-deadline regression at daemon level: a storm of deadlined
/// requests must ride the shared scheduler thread.
TEST_F(ServiceTest, DeadlineStormDoesNotSpawnThreadPerRequest) {
  ServerOptions options;
  options.workers = 4;
  options.queue_limit = 256;
  start(options);
  const int baseline = process_threads();
  ASSERT_GT(baseline, 0);

  constexpr int kClients = 4;
  constexpr int kPerClient = 25;  // 100 deadlined requests total
  std::atomic<int> answered{0};
  std::atomic<int> max_threads{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([this, c, &answered, &max_threads] {
      Client client = connect();
      std::string error;
      for (int i = 0; i < kPerClient; ++i) {
        Request req = slow_request(c * kPerClient + i, /*iters=*/2000,
                                   /*salt=*/c * 1000 + i);
        req.deadline_ms = 20;
        ASSERT_TRUE(client.send(req, &error)) << error;
      }
      for (int i = 0; i < kPerClient; ++i) {
        const auto resp = client.recv(&error);
        ASSERT_TRUE(resp.has_value()) << error;
        answered.fetch_add(1);
        int seen = process_threads();
        int prev = max_threads.load();
        while (seen > prev && !max_threads.compare_exchange_weak(prev, seen)) {
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(answered.load(), kClients * kPerClient);
  // Budget: client threads + connection readers + a generous allowance for
  // runtime pool threads. A thread-per-deadline design would exceed this
  // by ~100.
  EXPECT_LT(max_threads.load(), baseline + 40)
      << "deadlines appear to spawn per-request watchdog threads";
}

// --- admission control -------------------------------------------------------

TEST_F(ServiceTest, OverloadShedsImmediatelyAndBoundsTheQueue) {
  ServerOptions options;
  options.workers = 1;
  options.queue_limit = 3;
  observe::Registry::global().gauge("service.queue.depth").reset();
  start(options);
  Client client = connect();
  std::string error;

  // One plug to occupy the worker, then a burst. The connection thread
  // admits frames one by one: once the queue holds 3, the rest shed.
  constexpr int kBurst = 12;
  for (int i = 0; i < kBurst; ++i) {
    Request req = slow_request(i + 1, /*iters=*/250, /*salt=*/i);
    ASSERT_TRUE(client.send(req, &error)) << error;
  }
  int overloaded = 0;
  int completed = 0;
  std::vector<bool> seen(kBurst + 1, false);
  for (int i = 0; i < kBurst; ++i) {
    const auto resp = client.recv(&error);
    ASSERT_TRUE(resp.has_value()) << error;
    ASSERT_GE(resp->id, 1);
    ASSERT_LE(resp->id, kBurst);
    EXPECT_FALSE(seen[static_cast<std::size_t>(resp->id)])
        << "request answered twice";
    seen[static_cast<std::size_t>(resp->id)] = true;
    if (!resp->ok && resp->error_code == ErrorCode::Overloaded)
      ++overloaded;
    else if (resp->ok)
      ++completed;
  }
  // Every request answered exactly once; the ones past the high-water mark
  // shed instead of queueing.
  EXPECT_GE(overloaded, kBurst - 1 - static_cast<int>(options.queue_limit) -
                            /*may finish early=*/3);
  EXPECT_GE(completed, 1);
  EXPECT_EQ(overloaded + completed, kBurst);
  // The depth gauge's high-water mark proves bounded, not deferred, load.
  const auto depth =
      observe::Registry::global().snapshot().gauges.at("service.queue.depth");
  EXPECT_LE(depth.max, static_cast<std::int64_t>(options.queue_limit));
}

// --- health, stats, reporting ------------------------------------------------

TEST_F(ServiceTest, HealthReportsOneSourceOfTruth) {
  start();
  Client client = connect();
  Request detect;
  detect.id = 1;
  detect.kind = RequestKind::Detect;
  detect.source = kSumSource;
  ASSERT_TRUE(must_call(client, detect).ok);
  detect.id = 2;
  ASSERT_TRUE(must_call(client, detect).cached);

  Request health;
  health.id = 3;
  health.kind = RequestKind::Health;
  const Response resp = must_call(client, health);
  ASSERT_TRUE(resp.ok);
  const json::Value& result = resp.result;
  EXPECT_GE(result.at("uptime_ms").as_int(), 0);
  // The health view and the cache's own stats are the same numbers.
  const CacheStats stats = server_->cache().stats();
  EXPECT_EQ(result.at("cache").at("hits").as_int(),
            static_cast<std::int64_t>(stats.hits));
  EXPECT_EQ(result.at("cache").at("bytes").as_int(),
            static_cast<std::int64_t>(stats.bytes));
  EXPECT_EQ(result.at("cache").at("entries").as_int(),
            static_cast<std::int64_t>(stats.entries));
  // Balance: every accepted request in this snapshot is answered (health
  // itself is counted before it answers).
  const std::int64_t accepted = result.at("requests").at("accepted").as_int();
  const std::int64_t ok = result.at("requests").at("ok").as_int();
  const std::int64_t errs = result.at("requests").at("error").as_int();
  EXPECT_EQ(accepted, ok + errs + /*this health request*/ 1);
  // Admission reports its bound, the queue's high-water mark and the shed
  // count; there is no pressure mode to report.
  const json::Value& queue = result.at("queue");
  EXPECT_EQ(queue.at("limit").as_int(),
            static_cast<std::int64_t>(server_->options().queue_limit));
  EXPECT_TRUE(queue.at("high_water").is_number());
  EXPECT_TRUE(result.at("requests").at("overloaded").is_number());
  EXPECT_EQ(queue.find("degrade_depth"), nullptr);
  EXPECT_EQ(result.at("requests").find("degraded"), nullptr);
  // memory_summary flows through the same gauges (satellite: one source of
  // truth for report, daemon and tests).
  EXPECT_NE(result.at("memory").as_string().find("service cache"),
            std::string::npos);
  EXPECT_NE(observe::memory_summary().find("service cache"),
            std::string::npos);

  Request stats_req;
  stats_req.id = 4;
  stats_req.kind = RequestKind::Stats;
  const Response full = must_call(client, stats_req);
  ASSERT_TRUE(full.ok);
  EXPECT_TRUE(full.result.at("counters").is_object());
  EXPECT_GE(full.result.at("counters").at("service.requests.accepted").as_int(),
            accepted);
}

TEST_F(ServiceTest, ShutdownRequestDrainsAndAnswers) {
  start();
  Client client = connect();
  Request req;
  req.id = 1;
  req.kind = RequestKind::Shutdown;
  const Response resp = must_call(client, req);
  EXPECT_TRUE(resp.ok);
  EXPECT_TRUE(server_->wait_for_shutdown(5s));
  server_->stop();
  EXPECT_FALSE(server_->running());
  // The socket is gone: fresh connections are refused.
  Client refused;
  std::string error;
  EXPECT_FALSE(refused.connect(socket_path_, &error));
}

// --- the soak gate -----------------------------------------------------------

/// ≥1000 mixed requests with failpoints armed across daemon and runtime
/// paths. Gate: zero crashes or hangs, every request answered (structured
/// result, error, or overloaded), counters balanced when the dust settles.
TEST_F(ServiceTest, FaultInjectionSoakAnswersEveryRequest) {
  ServerOptions options;
  options.workers = 3;
  options.queue_limit = 32;
  options.cache_bytes = 48 * 1024;  // small: forces steady evictions
  start(options);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 250;  // 1000 requests total
  std::atomic<int> answered{0};
  std::atomic<int> transport_retries{0};
  std::atomic<bool> soaking{true};

  // Fault churn: periodically re-arm one-shot throw/delay/wake faults on
  // daemon and runtime sites while the soak runs. Sites fire on their n-th
  // hit, so rotating n spreads faults across request phases.
  std::thread arsonist([&soaking] {
    const char* const sites[] = {
        "service.decode",        "service.cache.insert",
        "service.response.write", "service.accept",
        "pipeline.worker.body",  "parallel_for.leaf",
        "master_worker.task",
    };
    int round = 0;
    while (soaking.load(std::memory_order_acquire)) {
      const int n = 1 + round % 7;
      fp::arm(sites[round % std::size(sites)],
              {fp::ActionKind::Throw, static_cast<std::uint64_t>(n), 0});
      fp::arm(sites[(round + 3) % std::size(sites)],
              {fp::ActionKind::Delay, static_cast<std::uint64_t>(n), 2});
      fp::arm("stage_queue.pop.park",
              {fp::ActionKind::Wake, static_cast<std::uint64_t>(n), 0});
      ++round;
      std::this_thread::sleep_for(5ms);
    }
    fp::disarm_all();
  });

  std::vector<std::thread> soakers;
  for (int t = 0; t < kThreads; ++t) {
    soakers.emplace_back([this, t, &answered, &transport_retries] {
      Client client;
      std::string error;
      // Transport faults (injected accept/write failures) may drop the
      // connection; the request is then replayed on a fresh one. Every
      // *delivered* request must be answered.
      auto deliver = [&](const std::function<bool()>& send_one) {
        for (int attempt = 0; attempt < 50; ++attempt) {
          if (!client.connected() && !client.connect(socket_path_, &error)) {
            transport_retries.fetch_add(1);
            std::this_thread::sleep_for(2ms);
            continue;
          }
          if (!send_one()) {
            client.close();
            transport_retries.fetch_add(1);
            continue;
          }
          std::string payload;
          if (client.recv_raw(&payload, &error) != 1) {
            client.close();
            transport_retries.fetch_add(1);
            continue;
          }
          const auto doc = json::Value::parse(payload, &error);
          ASSERT_TRUE(doc.has_value()) << "daemon sent bad JSON: " << error;
          // Structured answer: ok result or a coded error, never garbage.
          if (!doc->at("ok").as_bool())
            EXPECT_FALSE(doc->at("error").at("code").as_string().empty());
          answered.fetch_add(1);
          return;
        }
        FAIL() << "request undeliverable after 50 attempts";
      };

      for (int i = 0; i < kPerThread; ++i) {
        const int mix = (t * kPerThread + i) % 20;
        if (mix == 0) {
          // Malformed frame: answered bad_request, id 0.
          deliver([&] { return client.send_raw("{broken", &error); });
        } else if (mix == 1) {
          deliver([&] {
            return client.send_raw(R"({"id":1,"kind":"wat"})", &error);
          });
        } else if (mix == 2) {
          // Doomed by deadline.
          Request req = slow_request(i, /*iters=*/300, /*salt=*/t);
          req.deadline_ms = 10;
          deliver([&] { return client.send(req, &error); });
        } else if (mix == 3) {
          Request req;
          req.id = i;
          req.kind = RequestKind::Health;
          deliver([&] { return client.send(req, &error); });
        } else if (mix == 4) {
          // Runtime fault inside the request.
          Request req;
          req.id = i;
          req.kind = RequestKind::Detect;
          req.source = kDivZeroSource;
          req.no_cache = true;
          deliver([&] { return client.send(req, &error); });
        } else if (mix == 5) {
          Request req;
          req.id = i;
          req.kind = RequestKind::Tune;
          req.source = kSumSource;
          req.max_evals = 1;
          deliver([&] { return client.send(req, &error); });
        } else if (mix < 10) {
          Request req;
          req.id = i;
          req.kind = RequestKind::Parse;
          req.source = kSumSource;
          deliver([&] { return client.send(req, &error); });
        } else {
          // Detect over a rotating trio: mostly hits, steady evictions.
          Request req;
          req.id = i;
          req.kind = RequestKind::Detect;
          req.source = (mix % 3 == 0)   ? kSumSource
                       : (mix % 3 == 1) ? kProductSource
                                        : slow_source(3, /*salt=*/mix);
          deliver([&] { return client.send(req, &error); });
        }
      }
    });
  }
  for (auto& thread : soakers) thread.join();
  soaking.store(false, std::memory_order_release);
  arsonist.join();

  EXPECT_EQ(answered.load(), kThreads * kPerThread);
  EXPECT_TRUE(server_->running()) << "daemon died during the soak";

  // Counters balance once drained: every admitted request was answered.
  const std::uint64_t accepted = counter_value("service.requests.accepted");
  const std::uint64_t ok = counter_value("service.responses.ok");
  const std::uint64_t errs = counter_value("service.responses.error");
  EXPECT_EQ(accepted, ok + errs)
      << "accepted=" << accepted << " ok=" << ok << " error=" << errs;
  // The cache bound held through concurrent evictions.
  EXPECT_LE(server_->cache().stats().bytes, options.cache_bytes);
  std::printf("soak: answered=%d retries=%d accepted=%llu ok=%llu err=%llu "
              "overloaded=%llu decode_err=%llu evictions=%llu\n",
              answered.load(), transport_retries.load(),
              static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(errs),
              static_cast<unsigned long long>(
                  counter_value("service.requests.overloaded")),
              static_cast<unsigned long long>(
                  counter_value("service.requests.decode_errors")),
              static_cast<unsigned long long>(
                  counter_value("service.cache.evictions")));
}

}  // namespace
}  // namespace patty::service
