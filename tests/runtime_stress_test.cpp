// Concurrency stress tests for the lock-free runtime core: the Chase–Lev
// work-stealing deque, both rings, and the blocking StageQueue wrappers.
// Labeled `stress` so they run in the sanitizer configurations:
//
//   cmake -B build-tsan -DPATTY_SANITIZE=thread && cmake --build build-tsan
//   ctest --test-dir build-tsan -L stress
//
// Sizes are moderate (tens of thousands of operations): under TSan on a
// single-core host each test still finishes in seconds, while the close/
// drain and conservation properties they check are schedule-independent.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <numeric>
#include <optional>
#include <thread>
#include <vector>

#include "runtime/master_worker.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/ring_buffer.hpp"
#include "runtime/stage_queue.hpp"
#include "runtime/thread_pool.hpp"
#include "runtime/ws_deque.hpp"

namespace {

using namespace patty::rt;

// --- TaskGroup ---------------------------------------------------------------

TEST(TaskGroupStress, WaitReturnImpliesFinishersDone) {
  // Regression: wait() used to be able to return while the final finish()
  // was still notifying (the notify ran after an empty critical section),
  // letting the caller destroy the stack-allocated group under the
  // finishing worker. A tight create/run/wait/destroy loop maximizes that
  // window; under TSan any touch of a dead group is flagged.
  ThreadPool pool(4);
  for (int iter = 0; iter < 2000; ++iter) {
    std::atomic<int> hits{0};
    TaskGroup group;
    for (int t = 0; t < 4; ++t)
      group.run_on(pool, [&hits] {
        hits.fetch_add(1, std::memory_order_relaxed);
      });
    group.wait();
    ASSERT_EQ(hits.load(), 4);
  }
}

TEST(TaskGroupStress, ConcurrentWaitersAllRelease) {
  ThreadPool pool(2);
  for (int iter = 0; iter < 200; ++iter) {
    TaskGroup group;
    std::atomic<int> done{0};
    for (int t = 0; t < 8; ++t)
      group.run_on(pool, [&done] {
        done.fetch_add(1, std::memory_order_relaxed);
      });
    std::thread side([&group] { group.wait(); });
    group.wait();
    EXPECT_EQ(done.load(), 8);
    side.join();
  }
}

// --- WsDeque -----------------------------------------------------------------

TEST(WsDequeStress, OwnerLifoThievesFifoSingleThread) {
  WsDeque<int*> d(8);
  std::vector<int> vals(6);
  for (int i = 0; i < 6; ++i) {
    vals[i] = i;
    d.push(&vals[i]);
  }
  // Thief sees the oldest element, owner the newest.
  ASSERT_TRUE(d.steal().has_value());
  EXPECT_EQ(**d.steal(), 1);
  EXPECT_EQ(**d.pop(), 5);
  EXPECT_EQ(**d.pop(), 4);
  EXPECT_EQ(d.size(), 2u);
}

TEST(WsDequeStress, GrowsPastInitialCapacity) {
  WsDeque<int*> d(4);
  constexpr int kN = 10000;
  std::vector<int> vals(kN);
  for (int i = 0; i < kN; ++i) {
    vals[i] = i;
    d.push(&vals[i]);
  }
  long long sum = 0;
  while (std::optional<int*> p = d.pop()) sum += **p;
  EXPECT_EQ(sum, static_cast<long long>(kN) * (kN - 1) / 2);
  EXPECT_TRUE(d.empty());
}

TEST(WsDequeStress, ConcurrentPushPopStealConservesEveryElement) {
  // Owner pushes kN elements while interleaving pops; three thieves steal
  // continuously. Every element must be claimed exactly once.
  constexpr int kN = 50000;
  constexpr int kThieves = 3;
  WsDeque<int*> d(64);
  std::vector<int> vals(kN);
  std::atomic<bool> done{false};
  std::vector<std::vector<int>> stolen(kThieves);
  std::vector<int> popped;

  std::vector<std::thread> thieves;
  for (int t = 0; t < kThieves; ++t) {
    thieves.emplace_back([&, t] {
      while (!done.load(std::memory_order_acquire)) {
        if (std::optional<int*> p = d.steal())
          stolen[static_cast<std::size_t>(t)].push_back(**p);
        else
          std::this_thread::yield();
      }
      // Final sweep after the owner finished.
      while (std::optional<int*> p = d.steal())
        stolen[static_cast<std::size_t>(t)].push_back(**p);
    });
  }

  for (int i = 0; i < kN; ++i) {
    vals[static_cast<std::size_t>(i)] = i;
    d.push(&vals[static_cast<std::size_t>(i)]);
    if ((i & 3) == 0) {
      if (std::optional<int*> p = d.pop()) popped.push_back(**p);
    }
  }
  while (std::optional<int*> p = d.pop()) popped.push_back(**p);
  done.store(true, std::memory_order_release);
  for (std::thread& t : thieves) t.join();

  std::vector<int> all = popped;
  for (const auto& s : stolen) all.insert(all.end(), s.begin(), s.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kN));
  std::sort(all.begin(), all.end());
  for (int i = 0; i < kN; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
}

// --- SpscRing ----------------------------------------------------------------

TEST(SpscRingStress, CapacityIsExact) {
  SpscRing<int> r(3);  // 4 slots allocated, 3 usable
  EXPECT_EQ(r.capacity(), 3u);
  int v = 0;
  EXPECT_TRUE(r.try_push(std::move(v)));
  v = 1;
  EXPECT_TRUE(r.try_push(std::move(v)));
  v = 2;
  EXPECT_TRUE(r.try_push(std::move(v)));
  v = 3;
  EXPECT_FALSE(r.try_push(std::move(v)));
  EXPECT_EQ(*r.try_pop(), 0);
  EXPECT_TRUE(r.try_push(std::move(v)));
}

TEST(SpscRingStress, BatchedPushPopRoundTrips) {
  SpscRing<int> r(8);
  std::vector<int> in(5);
  std::iota(in.begin(), in.end(), 10);
  EXPECT_EQ(r.try_push_n(in.data(), in.size()), 5u);
  std::vector<int> out;
  EXPECT_EQ(r.try_pop_n(&out, 3), 3u);
  EXPECT_EQ(r.try_pop_n(&out, 10), 2u);
  EXPECT_EQ(out, std::vector<int>({10, 11, 12, 13, 14}));
}

TEST(SpscRingStress, ConcurrentOrderAndConservation) {
  constexpr int kN = 100000;
  SpscRing<int> r(16);
  std::vector<int> seen;
  seen.reserve(kN);
  std::thread consumer([&] {
    while (seen.size() < kN) {
      if (std::optional<int> v = r.try_pop())
        seen.push_back(*v);
      else
        std::this_thread::yield();
    }
  });
  for (int i = 0; i < kN; ++i) {
    int v = i;
    while (!r.try_push(std::move(v))) std::this_thread::yield();
  }
  consumer.join();
  ASSERT_EQ(seen.size(), static_cast<std::size_t>(kN));
  for (int i = 0; i < kN; ++i)
    ASSERT_EQ(seen[static_cast<std::size_t>(i)], i) << "FIFO order violated";
}

// --- MpmcRing ----------------------------------------------------------------

TEST(MpmcRingStress, LogicalCapacityRespectedSingleThread) {
  MpmcRing<int> r(3);  // 4 slots allocated, 3 usable
  EXPECT_EQ(r.capacity(), 3u);
  for (int i = 0; i < 3; ++i) {
    int v = i;
    EXPECT_TRUE(r.try_push(std::move(v)));
  }
  int v = 3;
  EXPECT_FALSE(r.try_push(std::move(v)));
  EXPECT_EQ(*r.try_pop(), 0);
  EXPECT_TRUE(r.try_push(std::move(v)));
}

TEST(MpmcRingStress, CapacityOneDoesNotWedge) {
  // Regression: a one-slot Vyukov ring deadlocks (dequeue-ready and next
  // enqueue-ready share a sequence value); the ring must allocate >= 2
  // slots while still enforcing logical capacity 1.
  MpmcRing<int> r(1);
  EXPECT_EQ(r.capacity(), 1u);
  for (int i = 0; i < 1000; ++i) {
    int v = i;
    ASSERT_TRUE(r.try_push(std::move(v)));
    int w = i;
    ASSERT_FALSE(r.try_push(std::move(w))) << "logical capacity 1 exceeded";
    ASSERT_EQ(*r.try_pop(), i);
  }
}

TEST(MpmcRingStress, ManyProducersManyConsumersConserveSum) {
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kPerProducer = 20000;
  MpmcRing<long long> r(64);
  std::atomic<long long> consumed_sum{0};
  std::atomic<int> consumed_count{0};
  std::atomic<bool> producers_done{false};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        long long v = static_cast<long long>(p) * kPerProducer + i;
        while (!r.try_push(std::move(v))) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        if (std::optional<long long> v = r.try_pop()) {
          consumed_sum.fetch_add(*v, std::memory_order_relaxed);
          consumed_count.fetch_add(1, std::memory_order_relaxed);
        } else if (producers_done.load(std::memory_order_acquire) &&
                   consumed_count.load(std::memory_order_relaxed) ==
                       kProducers * kPerProducer) {
          return;
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[static_cast<std::size_t>(p)].join();
  producers_done.store(true, std::memory_order_release);
  for (int c = 0; c < kConsumers; ++c)
    threads[static_cast<std::size_t>(kProducers + c)].join();

  const long long n = static_cast<long long>(kProducers) * kPerProducer;
  EXPECT_EQ(consumed_count.load(), n);
  EXPECT_EQ(consumed_sum.load(), n * (n - 1) / 2);
}

// --- StageQueue blocking contract, on both rings -----------------------------

// gtest names each case after a byte dump of its parameter, so every byte
// here is a plain value: a pointer or padding would give the cases names
// that change from build to build.
struct QueueParam {
  char name[8];  // the ring make_stage_queue picks for this topology
  std::size_t producers;
  std::size_t consumers;
  std::size_t per_producer;  // elements each producer streams, concurrent case
};
static_assert(sizeof(QueueParam) == 32, "QueueParam must have no padding");

class StageQueueContract : public ::testing::TestWithParam<QueueParam> {
 protected:
  std::unique_ptr<StageQueue<int>> make(std::size_t capacity) {
    const QueueParam& p = GetParam();
    return make_stage_queue<int>(capacity, p.producers, p.consumers);
  }
};

TEST_P(StageQueueContract, BackendSelectionMatchesTopology) {
  auto q = make(4);
  EXPECT_STREQ(q->backend(), GetParam().name);
}

TEST_P(StageQueueContract, FifoOrderSingleThread) {
  auto q = make(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q->push(i));
  for (int i = 0; i < 8; ++i) EXPECT_EQ(*q->pop(), i);
}

TEST_P(StageQueueContract, PopAfterCloseDrainsThenFails) {
  auto q = make(8);
  q->push(1);
  q->push(2);
  q->close();
  EXPECT_EQ(*q->pop(), 1);
  EXPECT_EQ(*q->pop(), 2);
  EXPECT_FALSE(q->pop().has_value());
}

TEST_P(StageQueueContract, PushAfterCloseIsRejected) {
  auto q = make(8);
  q->close();
  EXPECT_FALSE(q->push(7));
  EXPECT_EQ(q->size(), 0u);
}

TEST_P(StageQueueContract, TryPopNonBlocking) {
  auto q = make(4);
  EXPECT_FALSE(q->try_pop().has_value());
  q->push(9);
  EXPECT_EQ(*q->try_pop(), 9);
  EXPECT_FALSE(q->try_pop().has_value());
}

/// Waits until `waits()` reads at least 1, for at most 5 s. The queue counts
/// a blocking episode before it parks, so a true result means the other
/// thread has committed to parking.
template <typename Waits>
bool counted_a_wait(Waits waits) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (waits() < 1) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST_P(StageQueueContract, BlockedPushWakesOnPopAndCountsFullWait) {
  auto q = make(1);
  EXPECT_TRUE(q->push(1));
  std::thread t([&] { EXPECT_TRUE(q->push(2)); });
  // Once the pusher has blocked, make room.
  EXPECT_TRUE(counted_a_wait([&] { return q->stats().full_waits; }))
      << "the pusher never blocked on the full queue";
  EXPECT_EQ(*q->pop(), 1);
  t.join();
  EXPECT_EQ(*q->pop(), 2);
  EXPECT_GE(q->stats().full_waits, 1u);
  EXPECT_GE(q->stats().high_water, 1u);
}

TEST_P(StageQueueContract, BlockedPopWakesOnCloseAndCountsEmptyWait) {
  auto q = make(4);
  std::thread t([&] { EXPECT_FALSE(q->pop().has_value()); });
  EXPECT_TRUE(counted_a_wait([&] { return q->stats().empty_waits; }))
      << "the popper never blocked on the empty queue";
  q->close();
  t.join();
  EXPECT_GE(q->stats().empty_waits, 1u);
}

TEST_P(StageQueueContract, BatchedPopNWaitsThenGrabsAvailable) {
  auto q = make(8);
  for (int i = 0; i < 5; ++i) q->push(i);
  std::vector<int> out;
  EXPECT_TRUE(q->pop_n(&out, 3));
  EXPECT_EQ(out, std::vector<int>({0, 1, 2}));
  EXPECT_TRUE(q->pop_n(&out, 8));  // only 2 left; must not block for more
  EXPECT_EQ(out, std::vector<int>({3, 4}));
  q->close();
  EXPECT_FALSE(q->pop_n(&out, 4));
  EXPECT_TRUE(out.empty());
}

TEST_P(StageQueueContract, BatchedPushNDeliversInOrder) {
  auto q = make(4);
  std::vector<int> batch = {1, 2, 3, 4, 5, 6, 7};
  std::thread consumer([&] {
    std::vector<int> got;
    std::vector<int> buf;
    while (q->pop_n(&buf, 2))
      got.insert(got.end(), buf.begin(), buf.end());
    EXPECT_EQ(got, std::vector<int>({1, 2, 3, 4, 5, 6, 7}));
  });
  EXPECT_EQ(q->push_n(&batch), 7u);  // blocks through the cap-4 queue
  EXPECT_TRUE(batch.empty());
  q->close();
  consumer.join();
}

TEST_P(StageQueueContract, PushNAfterCloseAcceptsNothing) {
  auto q = make(4);
  q->close();
  std::vector<int> batch = {1, 2, 3};
  EXPECT_EQ(q->push_n(&batch), 0u);
}

TEST_P(StageQueueContract, ConcurrentStreamUnderTinyCapacity) {
  // The pipeline's actual topology per parameterization, with the smallest
  // buffer: producers push a disjoint id space, consumers drain until
  // end-of-stream; the union must be exact.
  const QueueParam& p = GetParam();
  const int per_producer = static_cast<int>(p.per_producer);
  auto q = make(1);
  std::atomic<long long> sum{0};
  std::atomic<long long> count{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < p.consumers; ++c) {
    threads.emplace_back([&] {
      std::vector<int> buf;
      while (q->pop_n(&buf, 4)) {
        for (int v : buf) sum.fetch_add(v, std::memory_order_relaxed);
        count.fetch_add(static_cast<long long>(buf.size()),
                        std::memory_order_relaxed);
      }
    });
  }
  std::vector<std::thread> producers;
  std::atomic<std::size_t> producers_left{p.producers};
  for (std::size_t w = 0; w < p.producers; ++w) {
    producers.emplace_back([&, w] {
      for (int i = 0; i < per_producer; ++i)
        ASSERT_TRUE(q->push(static_cast<int>(w) * per_producer + i));
      if (producers_left.fetch_sub(1) == 1) q->close();
    });
  }
  for (std::thread& t : producers) t.join();
  for (std::size_t c = 0; c < p.consumers; ++c)
    threads[c].join();
  const long long n = static_cast<long long>(p.producers) * per_producer;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
  EXPECT_GE(q->stats().high_water, 1u);
}

// --- Nested fork-join (helping join) ----------------------------------------
//
// The self-hosted front-end issues parallel_for / master_worker from pool
// worker threads (model build inside a pipeline stage, loop matching inside
// detect_all). Nested constructs spawn into the worker's own deque and join
// via ThreadPool::wait_on() — the joiner keeps draining pool work — so
// nested parallelism is inline-or-stolen, never a deadlock, even when every
// worker of the pool is itself blocked in a nested join.

TEST(HelpingJoinStress, NestedParallelForCompletes) {
  ParallelForTuning tuning;
  tuning.threads = 4;  // force the pool path on single-core CI hosts
  tuning.grain = 1;
  std::atomic<std::int64_t> sum{0};
  parallel_for(
      0, 48,
      [&sum, tuning](std::int64_t i) {
        parallel_for(
            0, 48,
            [&sum, i](std::int64_t j) {
              sum.fetch_add(i * 48 + j, std::memory_order_relaxed);
            },
            tuning);
      },
      tuning);
  const std::int64_t n = 48 * 48;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(HelpingJoinStress, TripleNestingCompletes) {
  ParallelForTuning tuning;
  tuning.threads = 4;
  tuning.grain = 1;
  std::atomic<std::int64_t> count{0};
  parallel_for(
      0, 8,
      [&](std::int64_t) {
        parallel_for(
            0, 8,
            [&](std::int64_t) {
              parallel_for(
                  0, 8,
                  [&](std::int64_t) {
                    count.fetch_add(1, std::memory_order_relaxed);
                  },
                  tuning);
            },
            tuning);
      },
      tuning);
  EXPECT_EQ(count.load(), 8 * 8 * 8);
}

TEST(HelpingJoinStress, ParallelForInsideSharedPoolMasterWorker) {
  // The detect_all shape: a shared-pool MasterWorker whose tasks each run a
  // parallel_for on the same pool. Every task joins helpingly; all of them
  // plus the outer join must drain.
  MasterWorker mw;  // workers == 0: shared pool
  ParallelForTuning tuning;
  tuning.threads = 4;
  tuning.grain = 1;
  std::atomic<std::int64_t> sum{0};
  std::vector<std::function<void()>> tasks;
  for (int t = 0; t < 6; ++t) {
    tasks.emplace_back([&sum, tuning] {
      parallel_for(
          0, 200,
          [&sum](std::int64_t i) {
            sum.fetch_add(i, std::memory_order_relaxed);
          },
          tuning);
    });
  }
  mw.run(tasks);
  EXPECT_EQ(sum.load(), 6 * (200 * 199) / 2);
}

TEST(HelpingJoinStress, RepeatedNestedJoinsDoNotWedge) {
  // Tight loop of small nested joins maximizes the window where wait_on()
  // polls idle() against in-flight finish() calls.
  ParallelForTuning tuning;
  tuning.threads = 4;
  tuning.grain = 1;
  for (int iter = 0; iter < 300; ++iter) {
    std::atomic<int> hits{0};
    parallel_for(
        0, 4,
        [&](std::int64_t) {
          parallel_for(
              0, 4,
              [&](std::int64_t) {
                hits.fetch_add(1, std::memory_order_relaxed);
              },
              tuning);
        },
        tuning);
    ASSERT_EQ(hits.load(), 16);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, StageQueueContract,
    ::testing::Values(QueueParam{"spsc", 1, 1, 10000},
                      QueueParam{"mpmc", 2, 2, 10000},
                      QueueParam{"mpmc", 1, 4, 10000},
                      QueueParam{"mpmc", 4, 3, 2500}),
    [](const ::testing::TestParamInfo<QueueParam>& info) {
      return std::string(info.param.name) + "_" +
             std::to_string(info.param.producers) + "p" +
             std::to_string(info.param.consumers) + "c";
    });

}  // namespace
