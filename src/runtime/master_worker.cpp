#include "runtime/master_worker.hpp"

#include <atomic>
#include <string>
#include <thread>

#include "observe/metrics.hpp"
#include "observe/trace.hpp"
#include "runtime/cancellation.hpp"
#include "support/failpoint.hpp"

namespace patty::rt {

namespace {

/// Master/worker instruments, resolved once (registry refs are stable).
struct MwMetrics {
  observe::Counter& runs;
  observe::Counter& tasks;
  observe::Counter& faults;
  observe::Gauge& queue_depth;
  observe::Histogram& task_us;
};

MwMetrics& mw_metrics() {
  static MwMetrics m{
      observe::Registry::global().counter("master_worker.runs"),
      observe::Registry::global().counter("master_worker.tasks"),
      observe::Registry::global().counter("master_worker.faults"),
      observe::Registry::global().gauge("master_worker.queue_depth"),
      observe::Registry::global().histogram("master_worker.task_us"),
  };
  return m;
}

/// One task body: failpoint site, telemetry, user code. Throws propagate to
/// the caller, who owns capture into the run's fault domain.
void run_task(const std::function<void()>& t, bool telemetry) {
  PATTY_FAILPOINT("master_worker.task");
  if (!telemetry) {
    t();
    return;
  }
  const std::uint64_t t0 = observe::now_us();
  t();
  const std::uint64_t dur = observe::now_us() - t0;
  mw_metrics().task_us.record(static_cast<double>(dur));
  observe::record_complete("mw.task", "mw", t0, dur);
}

}  // namespace

void MasterWorker::run(const std::vector<std::function<void()>>& tasks) const {
  if (tasks.empty()) return;
  const bool telemetry = observe::enabled();
  observe::Span span("master_worker.run", "mw");
  if (telemetry) {
    span.set_detail("tasks=" + std::to_string(tasks.size()) +
                    " workers=" + std::to_string(workers_));
    MwMetrics& m = mw_metrics();
    m.runs.add();
    m.tasks.add(tasks.size());
    m.queue_depth.set(static_cast<std::int64_t>(tasks.size()));
  }
  // The run's one stop signal, chained to the enclosing region and
  // installed as the ambient token around every task so nested regions
  // chain to it in turn. A task fault stops it too.
  StopSource stop(current_stop_token());
  if (tasks.size() == 1 || workers_ == 1) {
    // Inline: exceptions already reach the caller directly; just honour
    // the enclosing stop between tasks and count the fault.
    try {
      for (const auto& t : tasks) {
        if (stop.stop_requested()) throw OperationCancelled("master_worker");
        run_task(t, telemetry);
      }
    } catch (...) {
      if (telemetry) mw_metrics().faults.add();
      throw;
    }
    return;
  }
  if (workers_ == 0) {
    // Shared pool: no thread creation cost; the common configuration.
    // submit_fast with a by-reference capture: the tasks vector outlives
    // the join, so no per-task std::function copy is needed. The helping
    // join keeps a nested master/worker inside a pool task from blocking
    // pool capacity: the worker runs queued tasks while it waits.
    TaskGroup group;
    group.add(tasks.size());
    for (const auto& t : tasks) {
      ThreadPool::shared().submit_fast([&group, &stop, &t, telemetry] {
        // finish() on every path: a fault must not strand the joiner.
        if (!stop.stop_requested()) {
          StopScope ambient(stop.token());
          try {
            run_task(t, telemetry);
          } catch (...) {
            group.capture_exception();
            stop.request_stop();
          }
        }
        group.finish();
      });
    }
    ThreadPool::shared().wait_on(group);
    if (group.faulted()) {
      if (telemetry) mw_metrics().faults.add();
      group.rethrow_if_faulted();
    }
    if (stop.stop_requested()) throw OperationCancelled("master_worker");
    return;
  }
  // Dedicated crew: `workers_` threads pull tasks by index. The crew has
  // its own exception slot since no TaskGroup is involved; same
  // first-thrower-wins / siblings-unwind protocol.
  ExceptionSlot slot;
  std::atomic<std::size_t> next{0};
  const std::size_t crew =
      std::min(static_cast<std::size_t>(workers_), tasks.size());
  std::vector<std::thread> threads;
  threads.reserve(crew);
  for (std::size_t w = 0; w < crew; ++w) {
    threads.emplace_back([&] {
      StopScope ambient(stop.token());
      while (!stop.stop_requested()) {
        const std::size_t i = next.fetch_add(1);
        if (i >= tasks.size()) return;
        try {
          run_task(tasks[i], telemetry);
        } catch (...) {
          slot.capture_current();
          stop.request_stop();
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (slot.set()) {
    if (telemetry) mw_metrics().faults.add();
    slot.rethrow_if_set();
  }
  if (stop.stop_requested()) throw OperationCancelled("master_worker");
}

}  // namespace patty::rt
