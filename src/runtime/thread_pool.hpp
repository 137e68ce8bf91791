#pragma once
// Work-stealing thread pool plus a TaskGroup join primitive. Used by the
// master/worker pattern and parallel-for; pipelines bind threads to stages
// directly (stage binding) and do not go through the pool.
//
// Each worker owns a Chase–Lev deque (LIFO pop keeps caches warm, FIFO
// steal hands thieves the largest remaining subtree). External submitters
// feed a bounded MPMC injector ring, with a mutex-protected overflow list
// behind it so submit() never blocks and never runs tasks inline. While a
// backlog exists new submissions queue behind it and workers refill the
// ring from the backlog as they pop, so external submission order stays
// FIFO and overflow jobs cannot be starved by fresh ring traffic. Workers
// sleep on a condvar only when the whole pool is starved; producers take
// the wakeup lock only when a sleeper is registered, so the steady-state
// submit path is lock-free.
//
// Tasks are heap-allocated Job nodes dispatched through a plain function
// pointer. submit_fast<F>() stores the callable directly in the node — no
// std::function type-erasure allocation on the hot path; submit() keeps the
// std::function API (and its per-task telemetry wrapper) on top of it.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/cancellation.hpp"

namespace patty::rt {

class TaskGroup;

/// The machine's hardware thread count (at least 1), read once per process:
/// std::thread::hardware_concurrency() costs microseconds per call on some
/// libcs, and every "0 = one per hardware thread" default resolves here.
int hardware_threads();

class ThreadPool {
 public:
  /// `threads` == 0 picks hardware_threads().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task);

  /// Hot-path submission: one allocation sized to the callable, function-
  /// pointer dispatch, no std::function. From a worker thread the task goes
  /// straight into that worker's own deque (LIFO).
  template <typename F>
  void submit_fast(F&& fn) {
    using Fn = std::decay_t<F>;
    struct JobOf final : Job {
      explicit JobOf(Fn f) : fn(std::move(f)) {}
      Fn fn;
    };
    auto* job = new JobOf(std::forward<F>(fn));
    job->run = [](Job* j) {
      // Own the node before invoking: if fn throws, the node still frees on
      // unwind (the pool's run loop catches and counts the exception).
      std::unique_ptr<JobOf> self(static_cast<JobOf*>(j));
      self->fn();
    };
    enqueue(job);
  }

  [[nodiscard]] std::size_t thread_count() const { return threads_.size(); }

  /// Process-wide shared pool (lazily constructed, default-sized).
  static ThreadPool& shared();

  /// True while the calling thread is a pool worker. Nested fork-join
  /// constructs use wait_on() to join without blocking the worker; code
  /// that cannot help (e.g. holds a lock the tasks may take) can use this
  /// to fall back to inline execution.
  static bool on_worker_thread();

  /// Join `group` cooperatively. On a worker thread of *this* pool the
  /// caller keeps executing pool tasks (own deque, injector, steals) until
  /// the group drains — so nested fork-join submitted from a worker is
  /// inline-or-stolen rather than a deadlock. On any other thread this is
  /// group.wait(). The group must have exactly one joiner (see
  /// TaskGroup::idle()).
  void wait_on(TaskGroup& group);

  /// Exceptions that escaped a raw pool task (not routed through a
  /// TaskGroup fault domain) since process start. The pool swallows them —
  /// regions own propagation; a bare submit() with a throwing task is a
  /// caller bug this counter makes visible even with observe off.
  static std::uint64_t task_exception_count();

 private:
  /// Intrusive task node; `run` executes and frees it.
  struct Job {
    void (*run)(Job*) = nullptr;
  };
  struct Worker;  // per-worker deque + RNG, defined in the .cpp

  void enqueue(Job* job);
  Job* find_job(Worker& self);
  void worker_loop(std::size_t index);
  void wake_one();
  void refill_injector_from_overflow();

  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::thread> threads_;

  /// Submitted-but-unclaimed task count; doubles as the Dekker flag of the
  /// sleep protocol (worker: register sleeper, re-check pending; producer:
  /// bump pending, check sleepers — both seq_cst).
  std::atomic<std::size_t> pending_{0};
  std::atomic<std::uint32_t> sleepers_{0};
  std::atomic<bool> stopping_{false};

  struct Injector;  // bounded MPMC ring, defined in the .cpp
  std::unique_ptr<Injector> injector_;
  std::mutex overflow_mutex_;
  std::deque<Job*> overflow_;
  std::atomic<std::size_t> overflow_size_{0};

  std::mutex sleep_mutex_;
  std::condition_variable wake_;
};

/// Counts outstanding tasks; wait() blocks until all finished. RAII-friendly:
/// add() before submit, finish() inside the task (see run_on). Lock-free on
/// the add/finish side: the mutex is touched only by the final finish() when
/// a waiter is registered.
///
/// Lifetime contract: once wait() returns, the group may be destroyed —
/// groups live on the stack of the waiting caller (parallel_for,
/// master/worker). finish() therefore registers in `finishing_` before its
/// `outstanding_` decrement and deregisters as its very last member access,
/// and wait() returns only after observing both counters at zero under the
/// mutex; the final finish() notifies while *holding* the mutex so a parked
/// waiter cannot wake, observe completion, and free the group mid-notify.
class TaskGroup {
 public:
  void add(std::size_t n = 1) {
    outstanding_.fetch_add(n, std::memory_order_relaxed);
  }

  void finish();
  void wait();

  /// True when no task is outstanding and no finish() is mid-flight.
  /// Safe to poll without registering as a waiter: with no waiter
  /// registered, finish()'s last access to the group is its `finishing_`
  /// decrement, so observing outstanding_ == 0 and then finishing_ == 0
  /// (both seq_cst) proves every finisher is done touching the group.
  /// Only valid while no other thread is blocked in wait() on the same
  /// group (a waiter flips the final finish onto the notify path, whose
  /// last access is the mutex unlock) — i.e. one joiner per group.
  [[nodiscard]] bool idle() const {
    return outstanding_.load(std::memory_order_seq_cst) == 0 &&
           finishing_.load(std::memory_order_seq_cst) == 0;
  }

  /// Convenience: submit `task` to `pool` tracked by this group. The task
  /// is skipped when the group is already cancelled; if it throws, the
  /// exception is captured into the group's fault slot (first thrower wins,
  /// siblings are cancelled) and finish() still runs — a fault can never
  /// leave the group un-joinable.
  void run_on(ThreadPool& pool, std::function<void()> task);

  // --- Fault domain -------------------------------------------------------
  // One slot + one flag per group: the region that owns the group rethrows
  // via rethrow_if_faulted() after its join, so the caller sees exactly one
  // exception no matter how many tasks threw.

  /// Request cooperative cancellation: tasks that check cancelled() (run_on
  /// does, before invoking) skip their body and just finish().
  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// Capture std::current_exception() into the group's slot (first claim
  /// wins) and cancel the siblings. Call from inside a catch block.
  void capture_exception() noexcept;
  [[nodiscard]] bool faulted() const noexcept { return slot_.set(); }
  /// Rethrow the first captured exception, if any. Call after the join.
  void rethrow_if_faulted() { slot_.rethrow_if_set(); }

 private:
  std::atomic<std::size_t> outstanding_{0};
  /// finish() calls between their outstanding_ decrement and their last
  /// access to this object; wait() may not return while nonzero.
  std::atomic<std::uint32_t> finishing_{0};
  std::atomic<std::uint32_t> waiters_{0};
  std::mutex mutex_;
  std::condition_variable done_;
  std::atomic<bool> cancelled_{false};
  ExceptionSlot slot_;
};

}  // namespace patty::rt
