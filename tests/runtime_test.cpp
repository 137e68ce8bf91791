// Runtime-library tests: thread pool, master/worker, parallel-for/reduce,
// and the tuning configuration file format. The stage-queue contract lives
// in runtime_stress_test.cpp.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <numeric>
#include <thread>

#include "runtime/master_worker.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/tuning.hpp"

namespace patty::rt {
namespace {

// --- ThreadPool / TaskGroup --------------------------------------------------

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  TaskGroup group;
  for (int i = 0; i < 100; ++i)
    group.run_on(pool, [&count] { ++count; });
  group.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&count] { ++count; });
  }  // destructor joins after draining
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, SharedPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
}

TEST(TaskGroupTest, WaitWithNoTasksReturnsImmediately) {
  TaskGroup group;
  group.wait();  // must not hang
}

// --- MasterWorker ------------------------------------------------------------

TEST(MasterWorkerTest, RunsAllTasksSharedPool) {
  MasterWorker mw(0);
  std::atomic<int> hits{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 20; ++i) tasks.push_back([&hits] { ++hits; });
  mw.run(tasks);
  EXPECT_EQ(hits.load(), 20);
}

TEST(MasterWorkerTest, DedicatedCrew) {
  MasterWorker mw(3);
  std::atomic<int> hits{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 20; ++i) tasks.push_back([&hits] { ++hits; });
  mw.run(tasks);
  EXPECT_EQ(hits.load(), 20);
}

TEST(MasterWorkerTest, MapPreservesSubmissionOrder) {
  MasterWorker mw(4);
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 16; ++i)
    tasks.push_back([i] {
      std::this_thread::sleep_for(std::chrono::microseconds((16 - i) * 50));
      return i * i;
    });
  std::vector<int> results = mw.map(tasks);
  ASSERT_EQ(results.size(), 16u);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(results[static_cast<std::size_t>(i)], i * i);
}

TEST(MasterWorkerTest, EmptyAndSingleTask) {
  MasterWorker mw(2);
  mw.run({});
  int x = 0;
  mw.run({[&x] { x = 7; }});
  EXPECT_EQ(x, 7);
}

TEST(MasterWorkerTest, ActuallyRunsConcurrently) {
  // Two tasks that can only finish if both run at the same time.
  MasterWorker mw(2);
  std::atomic<int> arrived{0};
  auto rendezvous = [&arrived] {
    ++arrived;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (arrived.load() < 2) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "tasks did not run concurrently";
      std::this_thread::yield();
    }
  };
  mw.run({rendezvous, rendezvous});
  EXPECT_EQ(arrived.load(), 2);
}

// --- parallel_for ------------------------------------------------------------

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr int n = 10'000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; });
  for (int i = 0; i < n; ++i) EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << i;
}

TEST(ParallelForTest, EmptyRange) {
  bool called = false;
  parallel_for(5, 5, [&](std::int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelForTest, SequentialTuningMatchesParallel) {
  constexpr int n = 1000;
  std::vector<int> a(n), b(n);
  ParallelForTuning seq;
  seq.sequential = true;
  parallel_for(0, n, [&](std::int64_t i) { a[static_cast<std::size_t>(i)] = static_cast<int>(i * 3); }, seq);
  parallel_for(0, n, [&](std::int64_t i) { b[static_cast<std::size_t>(i)] = static_cast<int>(i * 3); });
  EXPECT_EQ(a, b);
}

TEST(ParallelForTest, GrainRespected) {
  std::atomic<int> chunks{0};
  ParallelForTuning t;
  t.grain = 100;
  t.threads = 4;
  parallel_for_chunked(0, 1000,
                       [&](std::int64_t lo, std::int64_t hi) {
                         EXPECT_LE(hi - lo, 100);
                         ++chunks;
                       },
                       t);
  EXPECT_EQ(chunks.load(), 10);
}

TEST(ParallelForTest, AutoGrainClampedForTinyRanges) {
  // Regression: with range < threads * 8 the auto-grain formula
  // range / (threads * 8) truncates to zero; it must clamp to 1, not
  // divide the range into zero-width chunks (infinite split / no progress).
  std::array<std::atomic<int>, 5> hits{};
  ParallelForTuning t;
  t.threads = 16;  // threads * 8 = 128 >> range
  t.grain = 0;     // auto
  parallel_for(0, 5, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; }, t);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, BlockedFastPathMatchesStdFunctionPath) {
  // parallel_for_blocked takes the chunk functor as a template parameter
  // (no std::function allocation); it must cover the same chunks.
  std::vector<std::atomic<int>> hits(512);
  ParallelForTuning t;
  t.grain = 32;
  t.threads = 4;  // force the parallel path even on single-core hosts
  parallel_for_blocked(0, 512,
                       [&](std::int64_t lo, std::int64_t hi) {
                         EXPECT_LE(hi - lo, 32);
                         for (std::int64_t i = lo; i < hi; ++i)
                           ++hits[static_cast<std::size_t>(i)];
                       },
                       t);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForTest, ReduceSum) {
  const std::int64_t total = parallel_reduce(
      1, 1001, 0, [](std::int64_t i) { return i; },
      [](std::int64_t a, std::int64_t b) { return a + b; });
  EXPECT_EQ(total, 500'500);
}

TEST(ParallelForTest, ReduceMax) {
  const std::int64_t m = parallel_reduce(
      0, 1000, std::numeric_limits<std::int64_t>::min(),
      [](std::int64_t i) { return (i * 37) % 991; },
      [](std::int64_t a, std::int64_t b) { return std::max(a, b); });
  EXPECT_EQ(m, 990);
}

TEST(ParallelForTest, NestedParallelForDoesNotDeadlock) {
  // Regression: a parallel_for body launching another parallel_for (or a
  // master/worker) must not block pool workers on pool tasks — on a
  // single-core host the shared pool has one thread and this deadlocked.
  std::atomic<int> inner_total{0};
  ParallelForTuning outer;
  outer.threads = 4;
  parallel_for(0, 8,
               [&](std::int64_t) {
                 ParallelForTuning inner;
                 inner.threads = 4;
                 parallel_for(0, 8, [&](std::int64_t) { ++inner_total; },
                              inner);
               },
               outer);
  EXPECT_EQ(inner_total.load(), 64);
}

TEST(MasterWorkerTest, NestedInsideParallelForDoesNotDeadlock) {
  std::atomic<int> hits{0};
  ParallelForTuning outer;
  outer.threads = 4;
  parallel_for(0, 6,
               [&](std::int64_t) {
                 MasterWorker mw(0);
                 mw.run({[&hits] { ++hits; }, [&hits] { ++hits; }});
               },
               outer);
  EXPECT_EQ(hits.load(), 12);
}

// --- TuningConfig ------------------------------------------------------------

TEST(TuningConfigTest, DefineGetSet) {
  TuningConfig config;
  TuningParameter p;
  p.name = "stage1.replication";
  p.kind = TuningKind::Int;
  p.value = 2;
  p.min = 1;
  p.max = 8;
  config.define(p);
  EXPECT_TRUE(config.has("stage1.replication"));
  EXPECT_EQ(config.get_or("stage1.replication", 1), 2);
  EXPECT_EQ(config.get_or("missing", 7), 7);
  config.set("stage1.replication", 4);
  EXPECT_EQ(config.get_or("stage1.replication", 1), 4);
}

TEST(TuningConfigTest, DomainEnumeration) {
  TuningParameter p;
  p.name = "x";
  p.min = 1;
  p.max = 8;
  p.step = 2;
  const auto dom = p.domain();
  EXPECT_EQ(dom, (std::vector<std::int64_t>{1, 3, 5, 7}));
  TuningParameter b;
  b.name = "flag";
  b.kind = TuningKind::Bool;
  EXPECT_EQ(b.domain(), (std::vector<std::int64_t>{0, 1}));
}

TEST(TuningConfigTest, SerializeParseRoundTrip) {
  TuningConfig config;
  TuningParameter p1;
  p1.name = "Process.pipeline.stage2.replication";
  p1.kind = TuningKind::Int;
  p1.value = 3;
  p1.min = 1;
  p1.max = 8;
  p1.location = "5:3-11:4";
  p1.description = "replicas of stage \"histo\"";
  config.define(p1);
  TuningParameter p2;
  p2.name = "Process.pipeline.sequential";
  p2.kind = TuningKind::Bool;
  p2.value = 0;
  config.define(p2);

  const std::string text = config.serialize();
  std::string error;
  auto parsed = TuningConfig::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->size(), 2u);
  const auto& q1 = parsed->params().at("Process.pipeline.stage2.replication");
  EXPECT_EQ(q1.value, 3);
  EXPECT_EQ(q1.max, 8);
  EXPECT_EQ(q1.location, "5:3-11:4");
  EXPECT_EQ(q1.description, "replicas of stage \"histo\"");
  const auto& q2 = parsed->params().at("Process.pipeline.sequential");
  EXPECT_EQ(q2.kind, TuningKind::Bool);
}

TEST(TuningConfigTest, ParseRejectsMalformedLines) {
  std::string error;
  EXPECT_FALSE(TuningConfig::parse("garbage here", &error).has_value());
  EXPECT_FALSE(TuningConfig::parse("param x kind=float", &error).has_value());
  EXPECT_FALSE(TuningConfig::parse("param x value=abc", &error).has_value());
  EXPECT_FALSE(TuningConfig::parse("param x novalue", &error).has_value());
}

TEST(TuningConfigTest, ParseSkipsCommentsAndBlanks) {
  auto parsed = TuningConfig::parse("# comment\n\nparam x kind=int value=1 min=0 max=2 step=1\n");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), 1u);
}

TEST(TuningConfigTest, SearchSpaceSize) {
  TuningConfig config;
  TuningParameter a;
  a.name = "a";
  a.min = 1;
  a.max = 4;  // 4 values
  config.define(a);
  TuningParameter b;
  b.name = "b";
  b.kind = TuningKind::Bool;  // 2 values
  config.define(b);
  EXPECT_EQ(config.search_space_size(), 8u);
}

}  // namespace
}  // namespace patty::rt
