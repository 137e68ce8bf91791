#pragma once
// Stage-connecting queue of the pipeline (paper §2.2 "buffers to connect
// predecessor and successor stages"): a bounded lock-free ring with a
// parking slow path, in two flavours picked from the edge topology:
//
//   spsc     SpscRing + parking  one producer, one consumer (unreplicated
//                                pipeline edges — the common case)
//   mpmc     MpmcRing + parking  replicated neighbours
//
// Blocking contract: push blocks while full and returns false once closed;
// pop blocks while empty-and-open, drains remaining elements after close,
// then returns nullopt; close wakes all. Batched push_n/pop_n move several
// elements per synchronization point (the BatchSize tuning parameter).
//
// Fast paths never touch the mutex: a failed try on the ring falls into a
// park protocol (waiter counter + condvar). The lost-wakeup race between
// "ring op failed, register waiter" and "peer made room, saw no waiter" is
// closed with seq_cst ordering on the waiter counters (Dekker-style: the
// waiter re-tries the ring after publishing its registration; the peer
// checks the counter after publishing its ring update). Parks additionally
// use a bounded wait so a missed edge degrades to a 50 ms hiccup instead of
// a hang — it should never fire, but lock-free + condvar seams earn an
// airbag.
//
// Stats: high_water is the max occupancy seen at push, full_waits and
// empty_waits count blocking episodes (not retries), feeding
// observe::explain's BufferCapacity / StageReplication advice.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "runtime/ring_buffer.hpp"
#include "support/failpoint.hpp"

namespace patty::rt {

/// Occupancy telemetry, the same for both rings.
struct QueueStats {
  std::size_t high_water = 0;
  std::uint64_t full_waits = 0;
  std::uint64_t empty_waits = 0;
};

template <typename T>
class StageQueue {
 public:
  virtual ~StageQueue() = default;

  /// Blocks while full. Returns false (drops the element) once closed.
  virtual bool push(T item) = 0;
  /// Blocking batch push; consumes `*items` front-to-back. Returns how many
  /// were accepted (short only when the queue closed mid-batch). Clears the
  /// vector.
  virtual std::size_t push_n(std::vector<T>* items) = 0;
  /// Blocks while empty and not closed. nullopt = closed and drained.
  virtual std::optional<T> pop() = 0;
  /// Blocking batch pop: waits for at least one element (or close), then
  /// grabs up to `max` without further waiting. False = closed and drained
  /// (`*out` left empty). Clears `*out` first.
  virtual bool pop_n(std::vector<T>* out, std::size_t max) = 0;
  /// Non-blocking pop; nullopt when currently empty (closed or not).
  virtual std::optional<T> try_pop() = 0;
  /// End of stream: wakes all waiters. Remaining items stay poppable.
  virtual void close() = 0;
  [[nodiscard]] virtual bool closed() const = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual std::size_t capacity() const = 0;
  [[nodiscard]] virtual QueueStats stats() const = 0;
  [[nodiscard]] virtual const char* backend() const = 0;
};

/// Ring backend: lock-free fast path, mutex-parked slow path.
/// `Ring` is SpscRing<T> or MpmcRing<T>.
template <typename T, typename Ring>
class RingStageQueue final : public StageQueue<T> {
 public:
  RingStageQueue(std::size_t capacity, const char* backend_name)
      : ring_(capacity), backend_(backend_name) {}

  bool push(T item) override {
    if (closed_.load(std::memory_order_acquire)) return false;
    if (ring_.try_push(std::move(item))) {
      after_push(1);
      return true;
    }
    return push_slow(std::move(item));
  }

  std::size_t push_n(std::vector<T>* items) override {
    std::size_t accepted = 0;
    const std::size_t n = items->size();
    while (accepted < n) {
      if (closed_.load(std::memory_order_acquire)) break;
      const std::size_t took =
          ring_.try_push_n(items->data() + accepted, n - accepted);
      if (took > 0) {
        accepted += took;
        after_push(took);
        continue;
      }
      // Full: push one element through the blocking path, then retry the
      // batch fast path.
      if (!push_slow(std::move((*items)[accepted]))) break;
      ++accepted;
    }
    items->clear();
    return accepted;
  }

  std::optional<T> pop() override {
    if (std::optional<T> v = ring_.try_pop()) {
      after_pop(1);
      return v;
    }
    return pop_slow();
  }

  bool pop_n(std::vector<T>* out, std::size_t max) override {
    out->clear();
    if (ring_.try_pop_n(out, max) == 0) {
      std::optional<T> first = pop_slow();
      if (!first) return false;
      out->push_back(std::move(*first));
      if (max > 1) ring_.try_pop_n(out, max - 1);
      // pop_slow already ran after_pop for its element; report only the
      // slots the extra batch grab freed, or the producer-side wakeup
      // breadth (freed > 1 => notify_all) double-counts.
      if (out->size() > 1) after_pop(out->size() - 1);
      return true;
    }
    after_pop(out->size());
    return true;
  }

  std::optional<T> try_pop() override {
    std::optional<T> v = ring_.try_pop();
    if (v) after_pop(1);
    return v;
  }

  void close() override {
    closed_.store(true, std::memory_order_seq_cst);
    {
      // Empty critical section: a waiter between its predicate check and
      // wait() holds the mutex, so acquiring it here orders the notify
      // after that waiter is actually parked.
      std::lock_guard<std::mutex> lock(mutex_);
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  [[nodiscard]] bool closed() const override {
    return closed_.load(std::memory_order_acquire);
  }

  [[nodiscard]] std::size_t size() const override { return ring_.size(); }
  [[nodiscard]] std::size_t capacity() const override {
    return ring_.capacity();
  }

  [[nodiscard]] QueueStats stats() const override {
    return {high_water_.load(std::memory_order_relaxed),
            full_waits_.load(std::memory_order_relaxed),
            empty_waits_.load(std::memory_order_relaxed)};
  }

  [[nodiscard]] const char* backend() const override { return backend_; }

 private:
  static constexpr auto kParkBound = std::chrono::milliseconds(50);

  void after_push(std::size_t pushed) {
    // High-water from the producer side, sampled after each push.
    const std::size_t occupancy = ring_.size();
    std::size_t seen = high_water_.load(std::memory_order_relaxed);
    while (occupancy > seen &&
           !high_water_.compare_exchange_weak(seen, occupancy,
                                              std::memory_order_relaxed)) {
    }
    // Dekker edge: the element store (release on the ring index) must be
    // ordered before the waiter-count load, and the consumer's count store
    // before its ring re-check. seq_cst on both sides closes the window.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (pop_waiters_.load(std::memory_order_relaxed) > 0) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
      }
      // A batch made several elements available: one wakeup would leave the
      // other parked consumers to recover only via the bounded-park timeout.
      if (pushed > 1)
        not_empty_.notify_all();
      else
        not_empty_.notify_one();
    }
  }

  void after_pop(std::size_t freed) {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (push_waiters_.load(std::memory_order_relaxed) > 0) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
      }
      // Same breadth rule as after_push: a batch pop freed several slots,
      // so wake every parked producer, not just one.
      if (freed > 1)
        not_full_.notify_all();
      else
        not_full_.notify_one();
    }
  }

  bool push_slow(T item) {
    bool counted = false;
    std::unique_lock<std::mutex> lock(mutex_);
    push_waiters_.fetch_add(1, std::memory_order_seq_cst);
    for (;;) {
      if (closed_.load(std::memory_order_seq_cst)) {
        push_waiters_.fetch_sub(1, std::memory_order_relaxed);
        return false;
      }
      if (ring_.try_push(std::move(item))) {
        push_waiters_.fetch_sub(1, std::memory_order_relaxed);
        lock.unlock();
        after_push(1);
        return true;
      }
      if (!counted) {
        counted = true;
        full_waits_.fetch_add(1, std::memory_order_relaxed);
      }
      // Failpoint: a forced spurious wakeup re-runs the predicate loop,
      // proving the park protocol tolerates wakeups without a cause.
      if (!PATTY_FAILPOINT_WAKE("stage_queue.push.park"))
        not_full_.wait_for(lock, kParkBound);
    }
  }

  std::optional<T> pop_slow() {
    bool counted = false;
    std::unique_lock<std::mutex> lock(mutex_);
    pop_waiters_.fetch_add(1, std::memory_order_seq_cst);
    for (;;) {
      if (std::optional<T> v = ring_.try_pop()) {
        pop_waiters_.fetch_sub(1, std::memory_order_relaxed);
        lock.unlock();
        after_pop(1);
        return v;
      }
      if (closed_.load(std::memory_order_seq_cst)) {
        // Re-check after observing closed: a push that won its race against
        // close() may have landed between our try_pop and the closed load.
        // (Pipelines close a queue only after all its producers finished,
        // so this is belt-and-braces for direct users of the queue.)
        if (std::optional<T> v = ring_.try_pop()) {
          pop_waiters_.fetch_sub(1, std::memory_order_relaxed);
          lock.unlock();
          after_pop(1);
          return v;
        }
        pop_waiters_.fetch_sub(1, std::memory_order_relaxed);
        return std::nullopt;
      }
      if (!counted) {
        counted = true;
        empty_waits_.fetch_add(1, std::memory_order_relaxed);
      }
      if (!PATTY_FAILPOINT_WAKE("stage_queue.pop.park"))
        not_empty_.wait_for(lock, kParkBound);
    }
  }

  Ring ring_;
  const char* backend_;
  std::atomic<bool> closed_{false};
  std::atomic<std::size_t> high_water_{0};
  std::atomic<std::uint64_t> full_waits_{0};
  std::atomic<std::uint64_t> empty_waits_{0};
  std::atomic<std::uint32_t> push_waiters_{0};
  std::atomic<std::uint32_t> pop_waiters_{0};
  std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
};

/// Ring selection from stage topology: an edge with one producer and one
/// consumer (no replication on either side) gets the SPSC ring; replicated
/// neighbours get the MPMC ring.
template <typename T>
std::unique_ptr<StageQueue<T>> make_stage_queue(std::size_t capacity,
                                                std::size_t producers,
                                                std::size_t consumers) {
  if (producers <= 1 && consumers <= 1)
    return std::make_unique<RingStageQueue<T, SpscRing<T>>>(capacity, "spsc");
  return std::make_unique<RingStageQueue<T, MpmcRing<T>>>(capacity, "mpmc");
}

}  // namespace patty::rt
