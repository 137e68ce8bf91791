#pragma once
// Structured cancellation and first-exception capture for parallel regions.
//
// Every region (parallel_for, Pipeline, master_worker) owns one fault domain:
// the first task to throw claims the region's ExceptionSlot, the region's
// stop flag flips, siblings observe it cooperatively and unwind without
// running further work, and the join point rethrows exactly the captured
// exception. Cancellation is purely cooperative — nothing is killed — so a
// task already inside user code finishes (or throws) on its own.
//
// Each region has exactly one stop signal: a StopSource whose parent is the
// enclosing region's token (the thread-ambient token, installed by
// StopScope around user code). A source reports stop once it or any
// ancestor has stopped, so a stop flows down arbitrarily deep nesting and a
// region polls only its own source. Deadlines are stops too: a
// ScopedDeadline on the shared DeadlineScheduler thread requests stop on
// the region's source when its budget expires.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>

namespace patty::rt {

/// Thrown at a region's join point when the region was cancelled (deadline
/// or enclosing stop) without any task of its own throwing.
class OperationCancelled : public std::runtime_error {
 public:
  explicit OperationCancelled(const std::string& region)
      : std::runtime_error("operation cancelled: " + region) {}
};

namespace detail {
struct StopState {
  std::atomic<bool> stop{false};
  std::shared_ptr<const StopState> parent;  // enclosing region, or null

  /// This state or any ancestor stopped. One load per nesting level; a
  /// top-level region pays a single load.
  [[nodiscard]] bool stopped() const {
    for (const StopState* s = this; s != nullptr; s = s->parent.get())
      if (s->stop.load(std::memory_order_acquire)) return true;
    return false;
  }
};
}  // namespace detail

class StopSource;

/// Observer end of a StopSource. Copyable, cheap, and safely empty: a
/// default-constructed token never reports stop.
class StopToken {
 public:
  StopToken() = default;
  [[nodiscard]] bool stop_possible() const { return state_ != nullptr; }
  [[nodiscard]] bool stop_requested() const {
    return state_ && state_->stopped();
  }

 private:
  friend class StopSource;
  explicit StopToken(std::shared_ptr<const detail::StopState> state)
      : state_(std::move(state)) {}
  std::shared_ptr<const detail::StopState> state_;
};

/// Owner end: request_stop() flips this source's flag. A source built with
/// a parent token also reports stop once the parent (or any ancestor) has
/// stopped; stopping a child never stops its parent.
class StopSource {
 public:
  StopSource() : StopSource(StopToken()) {}
  explicit StopSource(const StopToken& parent)
      : state_(std::make_shared<detail::StopState>()) {
    state_->parent = parent.state_;
  }
  [[nodiscard]] StopToken token() const { return StopToken(state_); }
  void request_stop() { state_->stop.store(true, std::memory_order_release); }
  [[nodiscard]] bool stop_requested() const { return state_->stopped(); }

 private:
  std::shared_ptr<detail::StopState> state_;
};

/// The calling thread's ambient cancellation token. Empty (never stops)
/// outside any region; inside a region's task it is the region's token, so
/// a nested region passes it as its own source's parent.
[[nodiscard]] StopToken current_stop_token();

/// Whether the calling thread's ambient token has stopped. Reads the token
/// in place, where current_stop_token().stop_requested() copies it first.
[[nodiscard]] bool stop_requested();

/// RAII: installs `token` as the thread-ambient token, restoring the
/// previous one on destruction. Regions wrap user-code invocation in this.
class StopScope {
 public:
  explicit StopScope(StopToken token);
  ~StopScope();
  StopScope(const StopScope&) = delete;
  StopScope& operator=(const StopScope&) = delete;

 private:
  StopToken previous_;
};

/// One exception_ptr per fault domain, claimed atomically by the first
/// thrower. Later captures are dropped (the region rethrows exactly one).
class ExceptionSlot {
 public:
  /// Capture std::current_exception() if the slot is unclaimed.
  /// Returns true when this call won the claim.
  bool capture_current() noexcept {
    bool expected = false;
    if (!claimed_.compare_exchange_strong(expected, true,
                                          std::memory_order_acq_rel))
      return false;
    error_ = std::current_exception();
    ready_.store(true, std::memory_order_release);
    return true;
  }

  [[nodiscard]] bool set() const noexcept {
    return claimed_.load(std::memory_order_acquire);
  }

  /// Rethrow the captured exception, if any. Spins briefly for the winner's
  /// store between its claim and ready publication (a few instructions).
  void rethrow_if_set() {
    if (!claimed_.load(std::memory_order_acquire)) return;
    while (!ready_.load(std::memory_order_acquire)) std::this_thread::yield();
    std::rethrow_exception(error_);
  }

 private:
  std::atomic<bool> claimed_{false};
  std::atomic<bool> ready_{false};
  std::exception_ptr error_;
};

/// Shared deadline thread: any number of concurrent deadlines, one timer
/// thread for the whole process. Entries are kept in a time-ordered map;
/// the thread sleeps until the earliest expiry, fires its callback, and
/// moves on. Region deadlines, tuner candidate deadlines and service
/// requests all arm entries here — 100 concurrent deadlines cost 100 map
/// nodes, not 100 threads (tests/service_test.cpp pins that bound).
///
/// Callback contract: `on_expire` runs on the scheduler thread, must not
/// throw (escapes are swallowed and counted nowhere — keep callbacks
/// trivial), must not block, and must OWN everything it touches (capture a
/// StopSource by value, not a reference to stack state): cancel() does not
/// wait for an in-flight callback, it only reports whether it lost the
/// race. ScopedDeadline below packages the safe idiom.
class DeadlineScheduler {
 public:
  using Handle = std::uint64_t;

  /// Process-global scheduler (lazily started, immortal).
  static DeadlineScheduler& global();

  /// Arm `on_expire` to run once `delay` from now elapses.
  Handle schedule(std::chrono::milliseconds delay,
                  std::function<void()> on_expire);

  /// Disarm. True when the entry was still pending (the callback will not
  /// run); false when it already fired or is firing right now.
  bool cancel(Handle handle);

  /// Currently armed entries (tests).
  [[nodiscard]] std::size_t pending() const;

 private:
  DeadlineScheduler();
  void run();

  using Clock = std::chrono::steady_clock;
  struct Entry {
    Handle id = 0;
    std::function<void()> fn;
  };

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::multimap<Clock::time_point, Entry> queue_;
  std::unordered_map<Handle, std::multimap<Clock::time_point, Entry>::iterator>
      index_;
  Handle next_id_ = 1;
  /// When the timer thread next wakes on its own (max while the queue is
  /// empty): only an entry due before it needs a notify.
  Clock::time_point wake_at_ = Clock::time_point::max();
};

/// RAII deadline on the shared scheduler: requests stop on `source` when
/// the budget expires, cancels on destruction. The callback captures the
/// StopSource (shared state) by value, so it stays safe even if it fires
/// after this object is gone.
class ScopedDeadline {
 public:
  ScopedDeadline(StopSource source, std::chrono::milliseconds delay);
  ~ScopedDeadline();
  ScopedDeadline(const ScopedDeadline&) = delete;
  ScopedDeadline& operator=(const ScopedDeadline&) = delete;
  /// Movable: the moved-from deadline forgets its handle and cancels
  /// nothing on destruction.
  ScopedDeadline(ScopedDeadline&& other) noexcept
      : fired_(std::move(other.fired_)), handle_(other.handle_) {
    other.handle_ = 0;
    other.fired_ = std::make_shared<std::atomic<bool>>(false);
  }
  ScopedDeadline& operator=(ScopedDeadline&&) = delete;

  /// True once the deadline fired (and stop was requested on the source).
  [[nodiscard]] bool expired() const {
    return fired_->load(std::memory_order_acquire);
  }

 private:
  std::shared_ptr<std::atomic<bool>> fired_;
  DeadlineScheduler::Handle handle_ = 0;
};

}  // namespace patty::rt
