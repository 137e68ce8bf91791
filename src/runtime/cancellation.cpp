#include "runtime/cancellation.hpp"

namespace patty::rt {

namespace {
thread_local StopToken t_ambient_token;
}  // namespace

StopToken current_stop_token() { return t_ambient_token; }

bool stop_requested() { return t_ambient_token.stop_requested(); }

StopScope::StopScope(StopToken token) : previous_(t_ambient_token) {
  t_ambient_token = std::move(token);
}

StopScope::~StopScope() { t_ambient_token = previous_; }

DeadlineScheduler& DeadlineScheduler::global() {
  static DeadlineScheduler* s = new DeadlineScheduler();  // immortal
  return *s;
}

DeadlineScheduler::DeadlineScheduler() {
  // The timer thread is detached on purpose: the global scheduler is
  // immortal (leaked), so there is no destruction point to join at, and a
  // detached sleeper cannot outlive anything it touches — the queue it
  // reads lives in the same leaked object.
  std::thread([this] { run(); }).detach();
}

void DeadlineScheduler::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (queue_.empty()) {
      wake_at_ = Clock::time_point::max();
      cv_.wait(lock, [this] { return !queue_.empty(); });
      continue;
    }
    const Clock::time_point earliest = queue_.begin()->first;
    if (Clock::now() < earliest) {
      // Wake early if a sooner entry arrives or the earliest is cancelled.
      wake_at_ = earliest;
      cv_.wait_until(lock, earliest, [this, earliest] {
        return queue_.empty() || queue_.begin()->first < earliest;
      });
      continue;
    }
    // Awake until the next scan: no schedule() needs to notify.
    wake_at_ = Clock::time_point::min();
    auto it = queue_.begin();
    Entry entry = std::move(it->second);
    index_.erase(entry.id);
    queue_.erase(it);
    lock.unlock();
    try {
      entry.fn();
    } catch (...) {
      // Contract: callbacks must not throw. Swallow so one bad callback
      // cannot take the process-wide timer thread down with it.
    }
    lock.lock();
  }
}

DeadlineScheduler::Handle DeadlineScheduler::schedule(
    std::chrono::milliseconds delay, std::function<void()> on_expire) {
  const Clock::time_point when = Clock::now() + delay;
  Handle id = 0;
  bool sooner = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
    auto it = queue_.emplace(when, Entry{id, std::move(on_expire)});
    index_.emplace(id, it);
    // A daemon arms a deadline per request, almost always later than the
    // one the thread already sleeps toward: waking it for nothing would
    // cost every request a futex wake and a context switch.
    sooner = when < wake_at_;
  }
  if (sooner) cv_.notify_all();
  return id;
}

bool DeadlineScheduler::cancel(Handle handle) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto found = index_.find(handle);
  if (found == index_.end()) return false;
  queue_.erase(found->second);
  index_.erase(found);
  return true;
}

std::size_t DeadlineScheduler::pending() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

ScopedDeadline::ScopedDeadline(StopSource source,
                               std::chrono::milliseconds delay)
    : fired_(std::make_shared<std::atomic<bool>>(false)) {
  handle_ = DeadlineScheduler::global().schedule(
      delay, [source = std::move(source), fired = fired_]() mutable {
        fired->store(true, std::memory_order_release);
        source.request_stop();
      });
}

ScopedDeadline::~ScopedDeadline() {
  if (handle_ != 0) DeadlineScheduler::global().cancel(handle_);
}

}  // namespace patty::rt
