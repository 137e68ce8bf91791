#include "runtime/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "observe/metrics.hpp"
#include "observe/trace.hpp"
#include "runtime/ring_buffer.hpp"
#include "runtime/ws_deque.hpp"

namespace patty::rt {

namespace {
thread_local bool g_on_pool_worker = false;

/// Pool instruments, resolved once (registry references are stable).
struct PoolMetrics {
  observe::Counter& submitted;
  observe::Counter& executed;
  observe::Counter& idle_waits;
  observe::Counter& steals;
  observe::Gauge& queue_depth;
  observe::Histogram& queue_wait_us;
  observe::Histogram& exec_us;
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m{
      observe::Registry::global().counter("threadpool.submitted"),
      observe::Registry::global().counter("threadpool.executed"),
      observe::Registry::global().counter("threadpool.idle_waits"),
      observe::Registry::global().counter("threadpool.steals"),
      observe::Registry::global().gauge("threadpool.queue_depth"),
      observe::Registry::global().histogram("threadpool.queue_wait_us"),
      observe::Registry::global().histogram("threadpool.exec_us"),
  };
  return m;
}

std::uint64_t xorshift64(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

std::atomic<std::uint64_t> g_task_exceptions{0};

/// Count an exception that escaped a raw pool task. Regions route their
/// exceptions through a TaskGroup fault slot before they reach the pool's
/// run loop; one arriving here came from a bare submit()/submit_fast(), and
/// letting it escape would std::terminate the worker (and the process).
void note_task_exception() {
  g_task_exceptions.fetch_add(1, std::memory_order_relaxed);
  if (observe::enabled())
    observe::Registry::global().counter("threadpool.task_exceptions").add();
}
}  // namespace

std::uint64_t ThreadPool::task_exception_count() {
  return g_task_exceptions.load(std::memory_order_relaxed);
}

/// Per-worker scheduling state. The deque holds this worker's own tasks
/// (LIFO pop); other workers steal from its top (FIFO).
struct ThreadPool::Worker {
  WsDeque<Job*> deque;
  std::uint64_t rng;
};

/// Central submission ring for tasks coming from non-worker threads. The
/// overflow deque behind it keeps submit() unbounded (the old pool's deque
/// had no capacity limit either, and callers rely on submit never blocking
/// or running tasks inline).
struct ThreadPool::Injector {
  explicit Injector(std::size_t capacity) : ring(capacity) {}
  MpmcRing<Job*> ring;
};

namespace {
/// Which worker of which pool the calling thread is, for same-pool
/// submit-to-own-deque routing. (Opaque pointer: Worker is private.)
struct WorkerIdentity {
  ThreadPool* pool = nullptr;
  void* worker = nullptr;
};
thread_local WorkerIdentity g_worker_identity;
}  // namespace

int hardware_threads() {
  static const int threads = [] {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<int>(hw);
  }();
  return threads;
}

bool ThreadPool::on_worker_thread() { return g_on_pool_worker; }

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n =
      threads > 0 ? threads : static_cast<std::size_t>(hardware_threads());
  injector_ = std::make_unique<Injector>(4096);
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto w = std::make_unique<Worker>();
    w->rng = 0x9e3779b97f4a7c15ull * (i + 1) + 0x2545f4914f6cdd1dull;
    workers_.push_back(std::move(w));
  }
  threads_.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  stopping_.store(true, std::memory_order_seq_cst);
  {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
  }
  wake_.notify_all();
  for (std::thread& t : threads_) t.join();
  // Workers only exit once pending_ hit zero, so nothing should remain; be
  // defensive anyway (leaked-but-unrun beats leaked-and-lost memory).
  while (std::optional<Job*> j = injector_->ring.try_pop()) {
    try {
      (*j)->run(*j);
    } catch (...) {
      note_task_exception();
    }
  }
  for (Job* j : overflow_) {
    try {
      j->run(j);
    } catch (...) {
      note_task_exception();
    }
  }
}

void ThreadPool::wake_one() {
  if (sleepers_.load(std::memory_order_seq_cst) > 0) {
    {
      // Empty critical section: serializes with a worker between its
      // pending_ re-check and wait(), so the notify cannot land in that
      // window and get lost.
      std::lock_guard<std::mutex> lock(sleep_mutex_);
    }
    wake_.notify_one();
  }
}

void ThreadPool::enqueue(Job* job) {
  pending_.fetch_add(1, std::memory_order_seq_cst);
  const WorkerIdentity& id = g_worker_identity;
  if (id.pool == this) {
    static_cast<Worker*>(id.worker)->deque.push(job);
  } else {
    // FIFO invariant: every overflow job is newer than every ring job. A
    // submission takes the ring only while no backlog exists; otherwise it
    // queues behind the backlog, which drains back into the ring as workers
    // pop (refill_injector_from_overflow) — so overflow jobs are neither
    // starved nor overtaken by fresh ring traffic.
    const bool ringed =
        overflow_size_.load(std::memory_order_seq_cst) == 0 &&
        injector_->ring.try_push(std::move(job));
    if (!ringed) {
      std::lock_guard<std::mutex> lock(overflow_mutex_);
      overflow_.push_back(job);
      overflow_size_.fetch_add(1, std::memory_order_release);
    }
  }
  if (observe::enabled())
    pool_metrics().queue_depth.set(
        static_cast<std::int64_t>(pending_.load(std::memory_order_relaxed)));
  wake_one();
}

void ThreadPool::submit(std::function<void()> task) {
  if (observe::enabled()) {
    // Task latency telemetry: wrap so queue wait (submit -> start) and
    // execution time land in the pool histograms. Only built when enabled,
    // so the disabled path keeps the original single-move submit.
    PoolMetrics& m = pool_metrics();
    m.submitted.add();
    task = [inner = std::move(task), enqueued = observe::now_us()] {
      PoolMetrics& pm = pool_metrics();
      const std::uint64_t start = observe::now_us();
      pm.queue_wait_us.record(static_cast<double>(start - enqueued));
      inner();
      pm.exec_us.record(static_cast<double>(observe::now_us() - start));
      pm.executed.add();
    };
  }
  submit_fast(std::move(task));
}

void ThreadPool::refill_injector_from_overflow() {
  std::lock_guard<std::mutex> lock(overflow_mutex_);
  std::size_t moved = 0;
  while (!overflow_.empty()) {
    Job* j = overflow_.front();
    if (!injector_->ring.try_push(std::move(j))) break;
    overflow_.pop_front();
    ++moved;
  }
  if (moved > 0) overflow_size_.fetch_sub(moved, std::memory_order_release);
}

ThreadPool::Job* ThreadPool::find_job(Worker& self) {
  // Own work first (LIFO: cache-warm, and what recursive splitting wants).
  if (std::optional<Job*> j = self.deque.pop()) return *j;
  // External submissions. The ring holds the oldest ones (enqueue diverts
  // to overflow_ while a backlog exists), so ring-first is FIFO; every pop
  // frees a slot, so top the ring up from the backlog — it drains at pool
  // consumption speed instead of one job per empty-ring scan.
  if (std::optional<Job*> j = injector_->ring.try_pop()) {
    if (overflow_size_.load(std::memory_order_acquire) > 0)
      refill_injector_from_overflow();
    return *j;
  }
  if (overflow_size_.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> lock(overflow_mutex_);
    if (!overflow_.empty()) {
      Job* j = overflow_.front();
      overflow_.pop_front();
      overflow_size_.fetch_sub(1, std::memory_order_release);
      return j;
    }
  }
  // Steal from randomized victims; a couple of sweeps before giving up.
  const std::size_t n = workers_.size();
  if (n > 1) {
    const bool telemetry = observe::enabled();
    for (std::size_t attempt = 0; attempt < 2 * n; ++attempt) {
      Worker& victim = *workers_[xorshift64(self.rng) % n];
      if (&victim == &self) continue;
      if (std::optional<Job*> j = victim.deque.steal()) {
        if (telemetry) pool_metrics().steals.add();
        return *j;
      }
    }
  }
  return nullptr;
}

void ThreadPool::worker_loop(std::size_t index) {
  g_on_pool_worker = true;
  Worker& self = *workers_[index];
  g_worker_identity = {this, &self};
  for (;;) {
    if (Job* job = find_job(self)) {
      // Claim-time decrement: pending_ tracks *unclaimed* work, so a
      // sleeping-candidate worker is not kept spinning by a long-running
      // task elsewhere.
      pending_.fetch_sub(1, std::memory_order_seq_cst);
      try {
        job->run(job);
      } catch (...) {
        note_task_exception();
      }
      continue;
    }
    if (stopping_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_seq_cst) == 0)
      return;
    std::unique_lock<std::mutex> lock(sleep_mutex_);
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
    if (pending_.load(std::memory_order_seq_cst) > 0 ||
        stopping_.load(std::memory_order_acquire)) {
      // Work arrived (or shutdown started) between the failed scan and the
      // sleeper registration: don't sleep.
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      continue;
    }
    if (observe::enabled()) pool_metrics().idle_waits.add();
    // Bounded park: the seq_cst sleeper/pending handshake makes a lost
    // wakeup impossible in theory; the timeout turns "in theory" into a
    // worst-case 100 ms hiccup in practice.
    wake_.wait_for(lock, std::chrono::milliseconds(100));
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
}

void ThreadPool::wait_on(TaskGroup& group) {
  const WorkerIdentity& id = g_worker_identity;
  if (id.pool != this) {
    group.wait();
    return;
  }
  // Helping join: keep draining pool work (own deque first — that's where
  // a nested fork-join's own children land — then injector/steals) until
  // the group goes idle. The worker never parks here: its condvar wakeup
  // belongs to *new* work, while group completion is signalled only by the
  // counters we poll.
  Worker& self = *static_cast<Worker*>(id.worker);
  std::size_t starved = 0;
  while (!group.idle()) {
    if (Job* job = find_job(self)) {
      pending_.fetch_sub(1, std::memory_order_seq_cst);
      try {
        job->run(job);
      } catch (...) {
        note_task_exception();
      }
      starved = 0;
      continue;
    }
    // Nothing runnable: the group's remaining tasks are in flight on other
    // workers. Yield a while, then back off to short sleeps.
    if (++starved < 64)
      std::this_thread::yield();
    else
      std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
}

ThreadPool& ThreadPool::shared() {
  // At least four workers even on small hosts: fork-join users block a
  // caller thread on pool progress, and wait-dominated tasks (pipelines
  // over I/O-like stages) still overlap when cores are scarce.
  static ThreadPool pool(
      std::max<std::size_t>(4, static_cast<std::size_t>(hardware_threads())));
  return pool;
}

void TaskGroup::finish() {
  // Register before the decrement that can make wait() eligible to return:
  // a waiter that observes outstanding_ == 0 then also observes this
  // registration until our very last access to the group has completed, so
  // the caller cannot destroy the (stack-allocated) group under us.
  finishing_.fetch_add(1, std::memory_order_seq_cst);
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Same Dekker shape as the pool's sleep protocol: wait() publishes its
    // registration (seq_cst) before re-checking outstanding_, we order the
    // final decrement before the waiter check.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (waiters_.load(std::memory_order_relaxed) > 0) {
      // Deregister and notify while HOLDING the mutex: the parked waiter
      // can observe finishing_ == 0 only after we release, i.e. after our
      // last touch of done_/mutex_. (Notify-after-unlock here is exactly
      // the use-after-free the lifetime contract forbids.)
      std::lock_guard<std::mutex> lock(mutex_);
      finishing_.fetch_sub(1, std::memory_order_seq_cst);
      done_.notify_all();
      return;
    }
  }
  // Non-final, or final with no waiter registered yet: this atomic is the
  // last access — a later wait() returns only once it reads the decrement.
  finishing_.fetch_sub(1, std::memory_order_seq_cst);
}

void TaskGroup::wait() {
  // No lock-free fast path: returning off a bare outstanding_ load could
  // race a finish() still between its decrement and its deregistration.
  std::unique_lock<std::mutex> lock(mutex_);
  waiters_.fetch_add(1, std::memory_order_seq_cst);
  // The finishing_ term closes the destruction race; a stale registration
  // with no notify pending resolves at the bounded-park timeout (the
  // preempted-between-two-atomics window, vanishingly rare).
  while (outstanding_.load(std::memory_order_seq_cst) != 0 ||
         finishing_.load(std::memory_order_seq_cst) != 0)
    done_.wait_for(lock, std::chrono::milliseconds(50));
  waiters_.fetch_sub(1, std::memory_order_relaxed);
}

void TaskGroup::capture_exception() noexcept {
  if (slot_.capture_current() && observe::enabled())
    observe::Registry::global().counter("fault.captured").add();
  cancel();
}

void TaskGroup::run_on(ThreadPool& pool, std::function<void()> task) {
  add();
  pool.submit([this, task = std::move(task)] {
    // finish() runs on every path: a throwing task must not strand the
    // joiner, and a cancelled group still has to drain its task count.
    if (!cancelled()) {
      try {
        task();
      } catch (...) {
        capture_exception();
      }
    }
    finish();
  });
}

}  // namespace patty::rt
