// Fault-tolerance suite (`ctest -L fault`): every unwind path of the
// runtime, driven deterministically through the failpoint harness
// (support/failpoint.hpp) and through stage bodies that throw on chosen
// elements. The contracts under test:
//
//   * a fault anywhere in a region (parallel_for chunk, master/worker task,
//     any pipeline stage position, generator, sink) cancels the region,
//     unwinds every worker, and rethrows EXACTLY ONE exception at the join;
//   * queues poisoned by close() wake producers parked on a full queue and
//     consumers parked on an empty one, on both rings;
//   * a stop flows down nested regions: a region nested in a pool task or a
//     pipeline stage stops with the enclosing region, a stopped pipeline
//     closes every queue, and a deadline armed on an enclosing scope stops
//     the regions inside it, sharing the scheduler thread;
//   * the tuner survives throwing and hung candidates;
//   * the plan executor degrades a faulted region to the interpreter and
//     still produces the reference output, a master/worker region running
//     only the tasks that had not finished.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/semantic_model.hpp"
#include "corpus/corpus.hpp"
#include "lang/sema.hpp"
#include "observe/metrics.hpp"
#include "observe/trace.hpp"
#include "patterns/detector.hpp"
#include "runtime/cancellation.hpp"
#include "runtime/master_worker.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/pipeline.hpp"
#include "runtime/stage_queue.hpp"
#include "runtime/thread_pool.hpp"
#include "support/failpoint.hpp"
#include "transform/plan.hpp"
#include "tuning/tuner.hpp"

namespace patty {
namespace {

namespace fp = support::failpoint;
using namespace std::chrono_literals;

/// Every test leaves the process-global failpoint registry clean.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { fp::disarm_all(); }

  static std::uint64_t counter(const char* name) {
    return observe::Registry::global().counter(name).value();
  }
  /// How far a counter moves for `n` events: counters stay at 0 when
  /// telemetry is compiled out (-DPATTY_OBSERVE=OFF).
  static constexpr std::uint64_t counted(std::uint64_t n) {
#ifdef PATTY_OBSERVE_DISABLED
    static_cast<void>(n);
    return 0;
#else
    return n;
#endif
  }
};

// --- failpoint harness unit tests -------------------------------------------

TEST_F(FaultTest, FailpointThrowsOnNthHitOnly) {
  fp::arm("unit.throw", {fp::ActionKind::Throw, 3, 0});
  PATTY_FAILPOINT("unit.throw");  // hit 1
  PATTY_FAILPOINT("unit.throw");  // hit 2
  try {
    PATTY_FAILPOINT("unit.throw");  // hit 3: fires
    FAIL() << "failpoint did not fire";
  } catch (const fp::FailpointError& e) {
    EXPECT_EQ(e.site(), "unit.throw");
  }
  PATTY_FAILPOINT("unit.throw");  // one-shot: hit 4 passes through
  EXPECT_EQ(fp::hits("unit.throw"), 4u);
}

TEST_F(FaultTest, FailpointWakeReportsSpuriousWakeupOnce) {
  fp::arm("unit.wake", {fp::ActionKind::Wake, 2, 0});
  EXPECT_FALSE(PATTY_FAILPOINT_WAKE("unit.wake"));
  EXPECT_TRUE(PATTY_FAILPOINT_WAKE("unit.wake"));
  EXPECT_FALSE(PATTY_FAILPOINT_WAKE("unit.wake"));
}

TEST_F(FaultTest, FailpointDelayBlocksForConfiguredMs) {
  fp::arm("unit.delay", {fp::ActionKind::Delay, 1, 30});
  const auto t0 = std::chrono::steady_clock::now();
  PATTY_FAILPOINT("unit.delay");
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, 25ms);
}

TEST_F(FaultTest, FailpointSpecGrammarParses) {
  std::string error;
  EXPECT_TRUE(fp::arm_from_string("a.site=throw@2", &error)) << error;
  EXPECT_TRUE(fp::arm_from_string("b.site=delay@1:50", &error)) << error;
  EXPECT_TRUE(fp::arm_from_string("c.site=wake@4", &error)) << error;
  EXPECT_EQ(fp::armed_sites().size(), 3u);

  EXPECT_FALSE(fp::arm_from_string("no-equals-sign", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(fp::arm_from_string("d.site=zap@1", &error));
  EXPECT_FALSE(fp::arm_from_string("e.site=throw@", &error));
  EXPECT_FALSE(fp::arm_from_string("f.site=throw@0", &error));

  EXPECT_EQ(fp::arm_from_env("g=throw@1;h=wake@2,i=delay@3:7", &error), 3u)
      << error;
  fp::disarm("g");
  EXPECT_EQ(fp::armed_sites().size(), 5u);  // a,b,c + h,i
  fp::disarm_all();
  EXPECT_TRUE(fp::armed_sites().empty());
}

TEST_F(FaultTest, DisarmedSiteIsInert) {
  // Nothing armed: the macro must not throw, sleep, or count.
  PATTY_FAILPOINT("unit.never.armed");
  EXPECT_FALSE(PATTY_FAILPOINT_WAKE("unit.never.armed"));
  EXPECT_EQ(fp::hits("unit.never.armed"), 0u);
}

// --- satellite: queue shutdown wakes parked producers and consumers ---------

/// Producers parked on a FULL queue with a permanently-stalled consumer:
/// close() must wake all of them, and their push must report the closure.
/// Already-buffered elements stay poppable (drain-then-end).
void expect_close_wakes_parked_producers(std::size_t producers,
                                         std::size_t consumers) {
  constexpr std::size_t kCapacity = 4;
  auto q = rt::make_stage_queue<int>(kCapacity, producers, consumers);
  // Fill to capacity from one thread (respects the SPSC single-producer
  // contract; the parked producers below only start after this is done).
  for (std::size_t i = 0; i < kCapacity; ++i) ASSERT_TRUE(q->push(1));

  std::atomic<int> rejected{0};
  std::vector<std::thread> threads;
  // For SPSC only a single producer thread may touch push; the fill above
  // finished before it starts, so the contract holds.
  const std::size_t pushers = producers;
  for (std::size_t p = 0; p < pushers; ++p) {
    threads.emplace_back([&q, &rejected] {
      if (!q->push(2)) rejected.fetch_add(1);
    });
  }
  // Let every producer reach the park on the full queue. Nobody pops.
  std::this_thread::sleep_for(50ms);
  q->close();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(rejected.load(), static_cast<int>(pushers))
      << q->backend() << ": a parked producer was not woken by close()";

  // Drain-then-end: the pre-close elements survive, then pop reports closed.
  std::size_t drained = 0;
  while (q->pop()) ++drained;
  EXPECT_EQ(drained, kCapacity) << q->backend();
  EXPECT_FALSE(q->pop().has_value());
  EXPECT_FALSE(q->push(3)) << q->backend() << ": push after close succeeded";
}

/// Consumers parked on an EMPTY queue: close() wakes them; pop reports end.
void expect_close_wakes_parked_consumers(std::size_t producers,
                                         std::size_t consumers) {
  auto q = rt::make_stage_queue<int>(4, producers, consumers);
  std::atomic<int> ended{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < consumers; ++c) {
    threads.emplace_back([&q, &ended] {
      if (!q->pop().has_value()) ended.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(50ms);
  q->close();
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ended.load(), static_cast<int>(consumers))
      << q->backend() << ": a parked consumer was not woken by close()";
}

TEST_F(FaultTest, CloseWakesParkedProducersSpscRing) {
  expect_close_wakes_parked_producers(1, 1);
}

TEST_F(FaultTest, CloseWakesParkedProducersMpmcRing) {
  expect_close_wakes_parked_producers(2, 2);
}

TEST_F(FaultTest, CloseWakesParkedConsumersAllBackends) {
  expect_close_wakes_parked_consumers(1, 1);
  expect_close_wakes_parked_consumers(2, 2);
}

// --- parallel_for fault domain ----------------------------------------------

rt::ParallelForTuning pf_tuning(std::int64_t grain = 2) {
  rt::ParallelForTuning t;
  t.threads = 4;
  t.grain = grain;
  return t;
}

TEST_F(FaultTest, ParallelForBodyExceptionReachesJoinExactlyOnce) {
  fp::arm("parallel_for.leaf", {fp::ActionKind::Throw, 1, 0});
  int exceptions = 0;
  try {
    rt::parallel_for(0, 64, [](std::int64_t) {}, pf_tuning());
  } catch (const fp::FailpointError& e) {
    ++exceptions;
    EXPECT_EQ(e.site(), "parallel_for.leaf");
  }
  EXPECT_EQ(exceptions, 1);
  // The pool is intact: a follow-up loop completes and covers the range.
  std::vector<std::atomic<int>> hitv(64);
  rt::parallel_for(0, 64, [&](std::int64_t i) { ++hitv[static_cast<std::size_t>(i)]; },
                   pf_tuning());
  for (auto& h : hitv) EXPECT_EQ(h.load(), 1);
}

TEST_F(FaultTest, ParallelForEveryChunkThrowingStillYieldsOneException) {
  // All leaves throw concurrently; the slot's first-claim protocol must
  // surface exactly one and swallow the rest.
  int exceptions = 0;
  std::string what;
  try {
    rt::parallel_for_blocked(
        0, 64,
        [](std::int64_t lo, std::int64_t) {
          throw std::runtime_error("chunk " + std::to_string(lo));
        },
        pf_tuning());
  } catch (const std::runtime_error& e) {
    ++exceptions;
    what = e.what();
  }
  EXPECT_EQ(exceptions, 1);
  EXPECT_EQ(what.rfind("chunk ", 0), 0u) << what;
}

TEST_F(FaultTest, ParallelForDeadlineCancelsRegion) {
  // The deadline is armed on the enclosing scope, as a daemon request or a
  // tuner candidate arms it; the region inherits it as its ambient token.
  rt::StopSource enclosing;
  rt::ScopedDeadline deadline(enclosing, 25ms);
  rt::StopScope ambient(enclosing.token());
  EXPECT_THROW(rt::parallel_for(
                   0, 12,
                   [](std::int64_t) { std::this_thread::sleep_for(15ms); },
                   pf_tuning(/*grain=*/1)),
               rt::OperationCancelled);
  EXPECT_TRUE(deadline.expired());
}

TEST_F(FaultTest, ParallelForHonoursInheritedCancellation) {
  rt::StopSource outer;
  outer.request_stop();
  rt::StopScope ambient(outer.token());
  EXPECT_THROW(rt::parallel_for(0, 64, [](std::int64_t) {}, pf_tuning()),
               rt::OperationCancelled);
}

TEST_F(FaultTest, FaultCountersBalanceOnRethrow) {
  observe::set_enabled(true);
  const std::uint64_t captured = counter("fault.captured");
  const std::uint64_t rethrown = counter("fault.rethrown");
  const std::uint64_t faults = counter("parallel_for.faults");
  EXPECT_THROW(rt::parallel_for_blocked(
                   0, 64,
                   [](std::int64_t, std::int64_t) {
                     throw std::runtime_error("boom");
                   },
                   pf_tuning()),
               std::runtime_error);
  // Exactly one capture and one rethrow per faulted region, however many
  // chunks threw — the "no leaked exceptions" balance.
  EXPECT_EQ(counter("fault.captured"), captured + counted(1));
  EXPECT_EQ(counter("fault.rethrown"), rethrown + counted(1));
  EXPECT_EQ(counter("parallel_for.faults"), faults + counted(1));
  observe::set_enabled(false);
}

// --- master/worker fault domain ---------------------------------------------

TEST_F(FaultTest, MasterWorkerSharedPoolTaskFaultReachesJoin) {
  fp::arm("master_worker.task", {fp::ActionKind::Throw, 3, 0});
  rt::MasterWorker mw(0);  // shared-pool path
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks(8, [&ran] { ran.fetch_add(1); });
  int exceptions = 0;
  try {
    mw.run(tasks);
  } catch (const fp::FailpointError&) {
    ++exceptions;
  }
  EXPECT_EQ(exceptions, 1);
  EXPECT_LE(ran.load(), 8);
  // Fault domain is per-run: the next run on the same instance is clean.
  mw.run(tasks);
}

TEST_F(FaultTest, MasterWorkerDedicatedCrewTaskFaultReachesJoin) {
  rt::MasterWorker mw(2);  // dedicated-crew path
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back([&ran, i] {
      if (i == 2) throw std::runtime_error("crew task boom");
      ran.fetch_add(1);
    });
  }
  int exceptions = 0;
  try {
    mw.run(tasks);
  } catch (const std::runtime_error& e) {
    ++exceptions;
    EXPECT_STREQ(e.what(), "crew task boom");
  }
  EXPECT_EQ(exceptions, 1);
}

TEST_F(FaultTest, MasterWorkerHonoursInheritedCancellation) {
  rt::StopSource outer;
  outer.request_stop();
  rt::StopScope ambient(outer.token());
  rt::MasterWorker mw(0);
  std::atomic<int> ran{0};
  std::vector<std::function<void()>> tasks(4, [&ran] { ran.fetch_add(1); });
  EXPECT_THROW(mw.run(tasks), rt::OperationCancelled);
  EXPECT_EQ(ran.load(), 0);
}

// --- pipeline fault domain ---------------------------------------------------

struct Elem {
  int id = 0;
  int value = 0;
};

std::function<std::optional<Elem>()> counting_source(int n) {
  auto i = std::make_shared<int>(0);
  return [i, n]() -> std::optional<Elem> {
    if (*i >= n) return std::nullopt;
    Elem e{*i, *i};
    ++*i;
    return e;
  };
}

rt::PipelineConfig small_buffers(const char* name) {
  rt::PipelineConfig cfg;
  cfg.buffer_capacity = 4;
  cfg.name = name;
  return cfg;
}

/// Build add1/add1/add1 with a throw-on-element-k body at `thrower`;
/// replication applies to the throwing stage.
std::vector<rt::Pipeline<Elem>::Stage> throwing_stages(std::size_t thrower,
                                                       int replication) {
  std::vector<rt::Pipeline<Elem>::Stage> stages;
  for (std::size_t s = 0; s < 3; ++s) {
    rt::Pipeline<Elem>::Stage stage;
    stage.name = "s" + std::to_string(s);
    if (s == thrower) {
      stage.fn = [](Elem& e) {
        if (e.id == 7) throw std::runtime_error("stage boom");
        e.value += 1;
      };
      stage.replication = replication;
      stage.preserve_order = replication > 1;
    } else {
      stage.fn = [](Elem& e) { e.value += 1; };
    }
    stages.push_back(std::move(stage));
  }
  return stages;
}

/// One exception at run()'s caller, whatever the faulting stage position;
/// every worker/generator thread joined (the test would hang otherwise).
void expect_stage_fault_propagates(std::size_t thrower, int replication) {
  rt::Pipeline<Elem> p(throwing_stages(thrower, replication),
                       small_buffers("fault.position"));
  int exceptions = 0;
  std::vector<Elem> out;
  try {
    p.run(counting_source(300), [&](Elem&& e) { out.push_back(e); });
  } catch (const std::runtime_error& e) {
    ++exceptions;
    EXPECT_STREQ(e.what(), "stage boom") << "thrower=" << thrower;
  }
  EXPECT_EQ(exceptions, 1) << "thrower=" << thrower;
}

TEST_F(FaultTest, PipelineFirstStageFaultPropagates) {
  expect_stage_fault_propagates(0, 1);
}

TEST_F(FaultTest, PipelineMiddleStageFaultPropagates) {
  expect_stage_fault_propagates(1, 1);
}

TEST_F(FaultTest, PipelineLastStageFaultPropagates) {
  expect_stage_fault_propagates(2, 1);
}

TEST_F(FaultTest, PipelineReplicatedStageFaultPropagates) {
  expect_stage_fault_propagates(1, 3);
}

TEST_F(FaultTest, PipelineGeneratorFaultPropagates) {
  rt::Pipeline<Elem> p({{"id", [](Elem&) {}, 1, false, false}},
                       small_buffers("fault.generator"));
  auto n = std::make_shared<int>(0);
  EXPECT_THROW(p.run(
                   [n]() -> std::optional<Elem> {
                     if (++*n == 5) throw std::runtime_error("source boom");
                     return Elem{*n, *n};
                   },
                   [](Elem&&) {}),
               std::runtime_error);
}

TEST_F(FaultTest, PipelineSinkFaultPropagates) {
  rt::Pipeline<Elem> p({{"id", [](Elem&) {}, 1, false, false}},
                       small_buffers("fault.sink"));
  EXPECT_THROW(p.run(counting_source(300),
                     [](Elem&& e) {
                       if (e.id == 3) throw std::runtime_error("sink boom");
                     }),
               std::runtime_error);
}

TEST_F(FaultTest, PipelinePoisonDrainUnblocksBackpressuredProducers) {
  // Long stream, tiny buffers: upstream stages are parked on full queues
  // when the failpoint fires between pop and push. The poison protocol
  // (close every queue) must wake them all or this test hangs.
  fp::arm("pipeline.worker.push", {fp::ActionKind::Throw, 5, 0});
  std::vector<rt::Pipeline<Elem>::Stage> stages;
  for (int s = 0; s < 3; ++s)
    stages.push_back({"s" + std::to_string(s),
                      [](Elem& e) { e.value += 1; }, 1, false, false});
  rt::PipelineConfig cfg = small_buffers("fault.poison");
  cfg.buffer_capacity = 2;
  rt::Pipeline<Elem> p(std::move(stages), cfg);
  EXPECT_THROW(p.run(counting_source(5000), [](Elem&&) {}),
               fp::FailpointError);
}

TEST_F(FaultTest, PipelineWorkerBodyFailpointPropagates) {
  fp::arm("pipeline.worker.body", {fp::ActionKind::Throw, 2, 0});
  std::vector<rt::Pipeline<Elem>::Stage> stages{
      {"a", [](Elem& e) { e.value += 1; }, 1, false, false},
      {"b", [](Elem& e) { e.value *= 2; }, 1, false, false},
  };
  rt::Pipeline<Elem> p(std::move(stages), small_buffers("fault.body"));
  EXPECT_THROW(p.run(counting_source(1000), [](Elem&&) {}),
               fp::FailpointError);
}

TEST_F(FaultTest, PipelineDeadlineCancelsRun) {
  rt::StopSource enclosing;
  rt::ScopedDeadline deadline(enclosing, 40ms);
  rt::StopScope ambient(enclosing.token());
  rt::Pipeline<Elem> p({{"slow",
                         [](Elem&) { std::this_thread::sleep_for(5ms); }, 1,
                         false, false}},
                       small_buffers("fault.deadline"));
  EXPECT_THROW(p.run(counting_source(1000), [](Elem&&) {}),
               rt::OperationCancelled);
  EXPECT_TRUE(deadline.expired());
}

TEST_F(FaultTest, PipelineHonoursInheritedCancellation) {
  rt::StopSource outer;
  outer.request_stop();
  rt::StopScope ambient(outer.token());
  rt::Pipeline<Elem> p({{"id", [](Elem&) {}, 1, false, false}},
                       small_buffers("fault.inherited"));
  EXPECT_THROW(p.run(counting_source(100), [](Elem&&) {}),
               rt::OperationCancelled);
}

TEST_F(FaultTest, PipelineSpuriousQueueWakeupsAreHarmless) {
  // A spurious park wakeup on either side of a ring queue must re-check
  // state and carry on: results stay complete and ordered.
  fp::arm("stage_queue.push.park", {fp::ActionKind::Wake, 1, 0});
  fp::arm("stage_queue.pop.park", {fp::ActionKind::Wake, 1, 0});
  rt::PipelineConfig cfg = small_buffers("fault.spurious");
  cfg.buffer_capacity = 2;  // force parks on both sides
  rt::Pipeline<Elem> p({{"inc", [](Elem& e) { e.value += 1; }, 1, false,
                         false},
                        {"dbl", [](Elem& e) { e.value *= 2; }, 1, false,
                         false}},
                       cfg);
  std::vector<Elem> out;
  p.run(counting_source(200), [&](Elem&& e) { out.push_back(e); });
  ASSERT_EQ(out.size(), 200u);
  for (const Elem& e : out) EXPECT_EQ(e.value, (e.id + 1) * 2);
}

TEST_F(FaultTest, NestedRegionChainsCancellationFromEnclosingPipeline) {
  // A pipeline stage runs a nested parallel_for; a sibling stage faults.
  // The nested loop chains its stop source to the pipeline's ambient
  // StopToken, so it either completed before the fault or was cancelled —
  // and the pipeline still rethrows exactly one exception (the sibling's).
  std::vector<rt::Pipeline<Elem>::Stage> stages;
  stages.push_back({"nested",
                    [](Elem& e) {
                      std::atomic<int> hits{0};
                      rt::parallel_for(
                          0, 8,
                          [&](std::int64_t) {
                            hits.fetch_add(1, std::memory_order_relaxed);
                          },
                          pf_tuning(1));
                      e.value += hits.load();
                    },
                    1, false, false});
  stages.push_back({"boom",
                    [](Elem& e) {
                      if (e.id == 5) throw std::runtime_error("sibling boom");
                    },
                    1, false, false});
  rt::Pipeline<Elem> p(std::move(stages), small_buffers("fault.nested"));
  int exceptions = 0;
  try {
    p.run(counting_source(400), [](Elem&&) {});
  } catch (const std::exception& e) {
    ++exceptions;
    const std::string what = e.what();
    EXPECT_TRUE(what == "sibling boom" ||
                what.find("operation cancelled") != std::string::npos)
        << what;
  }
  EXPECT_EQ(exceptions, 1);
}

// --- enclosing stops and deadlines -------------------------------------------

constexpr int kNestedIterations = 200;

/// A parallel_for of 2 ms iterations; counts the iterations that start once
/// `enclosing` has stopped.
void nested_loop(const rt::StopToken& enclosing, std::atomic<int>* after_stop) {
  rt::parallel_for(
      0, kNestedIterations,
      [&](std::int64_t) {
        if (enclosing.stop_requested()) after_stop->fetch_add(1);
        std::this_thread::sleep_for(2ms);
      },
      pf_tuning(1));
}

/// Runs `region` under an enclosing stop source that stops 20 ms in, and
/// expects the region to unwind with OperationCancelled.
void run_under_stop_at_20ms(
    const std::function<void(const rt::StopToken&)>& region) {
  rt::StopSource outer;
  rt::StopScope ambient(outer.token());
  std::thread stopper([&outer] {
    std::this_thread::sleep_for(20ms);
    outer.request_stop();
  });
  EXPECT_THROW(region(outer.token()), rt::OperationCancelled);
  stopper.join();
}

TEST_F(FaultTest, NestedParallelForInSharedPoolTaskStopsWithEnclosingRegion) {
  std::array<std::atomic<int>, 2> after_stop{};
  run_under_stop_at_20ms([&after_stop](const rt::StopToken& enclosing) {
    std::vector<std::function<void()>> tasks;
    for (std::atomic<int>& count : after_stop)
      tasks.emplace_back(
          [&enclosing, &count] { nested_loop(enclosing, &count); });
    rt::MasterWorker(0).run(tasks);  // shared-pool path
  });
  for (const std::atomic<int>& count : after_stop)
    EXPECT_LT(count.load(), kNestedIterations / 2);
}

TEST_F(FaultTest, NestedParallelForInPipelineStageStopsWithEnclosingRegion) {
  std::atomic<int> after_stop{0};
  run_under_stop_at_20ms([&after_stop](const rt::StopToken& enclosing) {
    rt::Pipeline<Elem> p(
        {{"nested", [&](Elem&) { nested_loop(enclosing, &after_stop); }, 1,
          false, false}},
        small_buffers("fault.nested_stop"));
    p.run(counting_source(1), [](Elem&&) {});
  });
  EXPECT_LT(after_stop.load(), kNestedIterations / 2);
}

/// Runs `body` on its own thread and ends the (death-test) process: exit 0
/// when it returns true within `limit`, 1 when it returns false, 2 when it
/// is still running then. _Exit skips destructors, so a hung body cannot
/// hang the test.
[[noreturn]] void exit_within(std::chrono::milliseconds limit,
                              std::function<bool()> body) {
  auto done = std::make_shared<std::promise<bool>>();
  std::future<bool> result = done->get_future();
  std::thread([body = std::move(body), done] { done->set_value(body()); })
      .detach();
  if (result.wait_for(limit) != std::future_status::ready) std::_Exit(2);
  std::_Exit(result.get() ? 0 : 1);
}

TEST_F(FaultTest, BackpressuredPipelineEndsOnEnclosingStop) {
  // The generator is parked on a full first queue when the enclosing region
  // stops. The stage worker leaves on the stop; unless that closes every
  // queue, the generator never wakes and run() never returns.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(exit_within(1000ms,
                          [] {
                            rt::StopSource outer;
                            rt::StopScope ambient(outer.token());
                            rt::PipelineConfig cfg =
                                small_buffers("fault.backpressured_stop");
                            cfg.buffer_capacity = 1;
                            rt::Pipeline<Elem> p(
                                {{"slow",
                                  [](Elem&) {
                                    std::this_thread::sleep_for(2ms);
                                  },
                                  1, false, false}},
                                cfg);
                            std::thread stopper([&outer] {
                              std::this_thread::sleep_for(20ms);
                              outer.request_stop();
                            });
                            bool cancelled = false;
                            try {
                              p.run(counting_source(1'000'000),
                                    [](Elem&&) {});
                            } catch (const rt::OperationCancelled&) {
                              cancelled = true;
                            }
                            stopper.join();
                            return cancelled;
                          }),
              ::testing::ExitedWithCode(0), "");
}

// --- thread pool / TaskGroup exception safety --------------------------------

TEST_F(FaultTest, RawSubmitFastExceptionDoesNotKillWorker) {
  const std::uint64_t before = rt::ThreadPool::task_exception_count();
  std::atomic<bool> reached{false};
  rt::ThreadPool::shared().submit_fast([&reached] {
    reached.store(true);
    throw std::runtime_error("raw task boom");
  });
  // The worker swallows and counts it; poll until the count moves.
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (rt::ThreadPool::task_exception_count() == before &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(1ms);
  EXPECT_TRUE(reached.load());
  EXPECT_GT(rt::ThreadPool::task_exception_count(), before);
  // The pool still runs work to completion.
  std::atomic<int> sum{0};
  rt::parallel_for(0, 32, [&](std::int64_t i) { sum.fetch_add(static_cast<int>(i)); },
                   pf_tuning());
  EXPECT_EQ(sum.load(), 32 * 31 / 2);
}

TEST_F(FaultTest, TaskGroupRunOnCapturesFirstFaultAndCancelsSiblings) {
  rt::TaskGroup group;
  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    group.run_on(rt::ThreadPool::shared(), [&ran] {
      ran.fetch_add(1);
      throw std::runtime_error("task boom");
    });
  }
  rt::ThreadPool::shared().wait_on(group);
  EXPECT_TRUE(group.faulted());
  EXPECT_TRUE(group.cancelled());
  EXPECT_THROW(group.rethrow_if_faulted(), std::runtime_error);
  // cancel() is cooperative: tasks that started before the first fault all
  // finished; ones scheduled after it were skipped, not leaked (wait_on
  // returned, so the outstanding count reached zero either way).
  EXPECT_GE(ran.load(), 1);
}

// --- tuner hardening ----------------------------------------------------------

rt::TuningConfig one_knob_config() {
  rt::TuningConfig config;
  rt::TuningParameter p;
  p.name = "loop.grain";
  p.kind = rt::TuningKind::Int;
  p.value = 1;
  p.min = 1;
  p.max = 4;
  p.step = 1;
  config.define(p);
  return config;
}

TEST_F(FaultTest, TunerScoresThrowingCandidateAsFailedAndContinues) {
  auto tuner = tuning::make_linear_tuner();
  const tuning::MeasureFn measure = [](const rt::TuningConfig& c) -> double {
    const std::int64_t g = c.get_or("loop.grain", 1);
    if (g == 2) throw std::runtime_error("candidate boom");
    return 10.0 - static_cast<double>(g);  // best at grain=4
  };
  tuning::TuningRun run = tuner->tune(one_knob_config(), measure, 16);
  EXPECT_GE(run.failed_evaluations, 1u);
  EXPECT_EQ(run.best.get_or("loop.grain", -1), 4);
  EXPECT_LT(run.best_score, std::numeric_limits<double>::infinity());
  bool saw_failure = false;
  for (const tuning::Evaluation& e : run.history) {
    if (!e.failed) continue;
    saw_failure = true;
    EXPECT_EQ(e.score, std::numeric_limits<double>::infinity());
    EXPECT_NE(e.failure.find("candidate boom"), std::string::npos)
        << e.failure;
  }
  EXPECT_TRUE(saw_failure);
}

TEST_F(FaultTest, TunerDeadlineCancelsHungCandidate) {
  auto tuner = tuning::make_linear_tuner();
  tuning::TunerOptions options;
  options.candidate_deadline_ms = 30;
  tuner->set_options(options);
  const tuning::MeasureFn measure = [](const rt::TuningConfig& c) -> double {
    const std::int64_t g = c.get_or("loop.grain", 1);
    if (g == 3) {
      // A hung candidate: spins until the tuner's watchdog cancels it via
      // the ambient StopToken (bounded as a safety net for broken builds).
      const rt::StopToken token = rt::current_stop_token();
      const auto give_up = std::chrono::steady_clock::now() + 5s;
      while (!token.stop_requested() &&
             std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(1ms);
    }
    return 10.0 - static_cast<double>(g);
  };
  tuning::TuningRun run = tuner->tune(one_knob_config(), measure, 16);
  EXPECT_GE(run.failed_evaluations, 1u);
  bool saw_deadline = false;
  for (const tuning::Evaluation& e : run.history)
    if (e.failed && e.failure == "deadline exceeded") saw_deadline = true;
  EXPECT_TRUE(saw_deadline);
  // The hung value never wins.
  EXPECT_NE(run.best.get_or("loop.grain", -1), 3);
}

TEST_F(FaultTest, TunerUnderEnclosingStopStartsNoMeasurement) {
  // Each measurement takes 500 ms unless its ambient token stops; the
  // enclosing region stops 20 ms into the first one.
  using Clock = std::chrono::steady_clock;
  rt::StopSource outer;
  rt::StopScope ambient(outer.token());
  std::vector<Clock::time_point> starts;
  const tuning::MeasureFn measure = [&starts](const rt::TuningConfig&) {
    starts.push_back(Clock::now());
    const rt::StopToken token = rt::current_stop_token();
    const auto end = Clock::now() + 500ms;
    while (Clock::now() < end) {
      if (token.stop_requested()) throw rt::OperationCancelled("measure");
      std::this_thread::sleep_for(1ms);
    }
    return 1.0;
  };
  Clock::time_point stopped_at;
  std::thread stopper([&outer, &stopped_at] {
    std::this_thread::sleep_for(20ms);
    stopped_at = Clock::now();
    outer.request_stop();
  });
  tuning::make_linear_tuner()->tune(one_knob_config(), measure, 16);
  const Clock::time_point returned = Clock::now();
  stopper.join();
  EXPECT_LT(returned - stopped_at, 100ms);
  ASSERT_FALSE(starts.empty());
  for (const Clock::time_point& start : starts)
    EXPECT_LT(start, stopped_at) << "a measurement started after the stop";
}

/// Current thread count of this process (Linux /proc).
int process_threads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0)
      return std::atoi(line.c_str() + sizeof("Threads:") - 1);
  }
  return -1;
}

TEST_F(FaultTest, ArmedDeadlinesStartNoThread) {
  // The scheduler's thread and the shared pool exist before the baseline.
  (void)rt::DeadlineScheduler::global();
  rt::parallel_for(0, 64, [](std::int64_t) {}, pf_tuning());
  const int before = process_threads();
  ASSERT_GT(before, 0);

  // Regions run under a deadline armed on their enclosing scope.
  std::atomic<int> in_loop{-1};
  {
    rt::StopSource enclosing;
    rt::ScopedDeadline deadline(enclosing, 60'000ms);
    rt::StopScope ambient(enclosing.token());
    rt::parallel_for(
        0, 8,
        [&](std::int64_t i) {
          if (i == 0) in_loop.store(process_threads());
        },
        pf_tuning(1));
  }
  EXPECT_EQ(in_loop.load(), before) << "parallel_for deadline";

  // A pipeline run adds its stage and generator threads; a deadline adds
  // nothing on top of them. The source waits for the count, so the
  // generator thread is alive while the stage takes it.
  auto threads_in_stage = [](bool armed) {
    rt::StopSource enclosing;
    std::optional<rt::ScopedDeadline> deadline;
    if (armed) deadline.emplace(enclosing, 60'000ms);
    rt::StopScope ambient(enclosing.token());
    std::atomic<int> seen{-1};
    rt::Pipeline<Elem> p(
        {{"count", [&seen](Elem&) { seen.store(process_threads()); }, 1,
          false, false}},
        small_buffers("fault.deadline_threads"));
    bool emitted = false;
    p.run(
        [&]() -> std::optional<Elem> {
          if (!std::exchange(emitted, true)) return Elem{};
          while (seen.load() < 0) std::this_thread::sleep_for(1ms);
          return std::nullopt;
        },
        [](Elem&&) {});
    return seen.load();
  };
  EXPECT_EQ(threads_in_stage(true), threads_in_stage(false))
      << "pipeline deadline";

  auto tuner = tuning::make_linear_tuner();
  tuning::TunerOptions options;
  options.candidate_deadline_ms = 60'000;
  tuner->set_options(options);
  int in_measure = -1;
  tuner->tune(
      one_knob_config(),
      [&in_measure](const rt::TuningConfig&) {
        in_measure = process_threads();
        return 1.0;
      },
      1);
  EXPECT_EQ(in_measure, before) << "tuner candidate deadline";
}

// --- plan executor: end-to-end degradation ------------------------------------

TEST_F(FaultTest, PlanExecutorDegradesFaultedRegionToSequential) {
  DiagnosticSink diags;
  auto program = lang::parse_and_check(corpus::avistream().source, diags);
  ASSERT_TRUE(program) << diags.to_string();
  auto model = analysis::SemanticModel::build(*program);
  auto candidates = patterns::detect_all(*model).candidates;
  ASSERT_FALSE(candidates.empty());

  analysis::Interpreter reference(*program);
  reference.run_main();
  const std::string expected = reference.output();

  // First pipeline stage body to run faults once; the plan executor must
  // catch the region fault, rerun the loop on the interpreter, and still
  // produce the reference output.
  fp::arm("pipeline.worker.body", {fp::ActionKind::Throw, 1, 0});
  const rt::TuningConfig config = transform::default_tuning(candidates);
  transform::ParallelPlanExecutor executor(*program, candidates, &config);
  executor.run_main();
  EXPECT_EQ(executor.output(), expected);

  bool saw_fault_fallback = false;
  for (const transform::PlanReport& r : executor.reports()) {
    if (r.note.find("parallel region faulted") != std::string::npos) {
      saw_fault_fallback = true;
      EXPECT_FALSE(r.ran_parallel);
    }
  }
  EXPECT_TRUE(saw_fault_fallback);
}

TEST_F(FaultTest, PlanExecutorReplaysOnlyUnfinishedMasterWorkerTasks) {
  // Each task adds to its own counter (one class each, so the tasks are
  // independent), which a second run would add to again. A task has no
  // cancellation point once past the failpoint, so the first task to start
  // always finishes; the second faults before its statement runs.
  DiagnosticSink diags;
  auto program = lang::parse_and_check(R"(class Hits {
  int n;
  int Bump(int k) { n = n + k; return k * 2; }
}
class Tally {
  int n;
  int Bump(int k) { n = n + k; return k * 2; }
}
class Meter {
  int n;
  int Bump(int k) { n = n + k; return k * 2; }
}
class Main {
  Hits h; Tally t; Meter m;
  void init() { h = new Hits(); t = new Tally(); m = new Meter(); }
  void main() {
    int a = h.Bump(1);
    int b = t.Bump(2);
    int c = m.Bump(3);
    print(a + b * 10 + c * 100);
    print(h.n + t.n * 10 + m.n * 100);
  }
})",
                                       diags);
  ASSERT_TRUE(program) << diags.to_string();
  auto model = analysis::SemanticModel::build(*program);
  auto candidates = patterns::detect_all(*model).candidates;
  ASSERT_EQ(candidates.size(), 1u);
  ASSERT_EQ(candidates[0].kind, patterns::PatternKind::MasterWorker);

  analysis::Interpreter reference(*program);
  reference.run_main();
  ASSERT_EQ(reference.output(), "642\n321\n");

  fp::arm("master_worker.task", {fp::ActionKind::Throw, 2, 0});
  const rt::TuningConfig config = transform::default_tuning(candidates);
  transform::ParallelPlanExecutor executor(*program, candidates, &config);
  executor.run_main();
  EXPECT_EQ(executor.output(), reference.output());
  EXPECT_GE(fp::hits("master_worker.task"), 2u);
  const std::vector<transform::PlanReport> reports = executor.reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_FALSE(reports[0].ran_parallel);
  EXPECT_NE(reports[0].note.find("parallel region faulted"), std::string::npos)
      << reports[0].note;
}

}  // namespace
}  // namespace patty
