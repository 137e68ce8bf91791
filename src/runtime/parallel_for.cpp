#include "runtime/parallel_for.hpp"

#include <algorithm>
#include <mutex>
#include <string>
#include <vector>

#include "observe/metrics.hpp"
#include "observe/trace.hpp"
#include "runtime/cancellation.hpp"
#include "runtime/thread_pool.hpp"
#include "support/failpoint.hpp"

namespace patty::rt {

namespace {

/// Loop instruments, resolved once (registry references are stable).
struct LoopMetrics {
  observe::Counter& loops;
  observe::Counter& sequential_fallbacks;
  observe::Counter& chunks;
  observe::Counter& faults;
  observe::Counter& spawns;
  observe::Counter& iterations;
  observe::Histogram& chunk_us;
};

LoopMetrics& loop_metrics() {
  static LoopMetrics m{
      observe::Registry::global().counter("parallel_for.loops"),
      observe::Registry::global().counter("parallel_for.sequential"),
      observe::Registry::global().counter("parallel_for.chunks"),
      observe::Registry::global().counter("parallel_for.faults"),
      observe::Registry::global().counter("parallel_for.spawns"),
      observe::Registry::global().counter("parallel_for.iterations"),
      observe::Registry::global().histogram("parallel_for.chunk_us"),
  };
  return m;
}

std::int64_t effective_threads(const ParallelForTuning& tuning) {
  return tuning.threads > 0 ? tuning.threads : hardware_threads();
}

std::int64_t effective_grain(std::int64_t range,
                             const ParallelForTuning& tuning,
                             std::int64_t threads) {
  if (tuning.grain > 0) return tuning.grain;
  // Auto grain: ~8 chunks per thread gives stealing room without drowning
  // in scheduling overhead. Clamped to >=1: small ranges must not
  // degenerate to zero-width (infinite) or per-iteration chunks.
  const std::int64_t g = range / (threads * 8);
  return std::max<std::int64_t>(1, g);
}

/// Shared state of one splitting loop. Chunks run through the function
/// pointer; telemetry mirrors the old static-chunking implementation. The
/// group is the loop's fault domain: the first leaf to throw claims its
/// exception slot and stops the loop. `stop` is the loop's one stop signal:
/// chained to the enclosing region's token (which carries any deadline),
/// stopped by a fault, and installed as the ambient token around each leaf
/// so nested regions started from the body chain to it in turn.
struct SplitCtx {
  detail::ChunkInvoker invoke;
  void* ctx;
  std::int64_t grain;
  bool telemetry;
  TaskGroup group;
  StopSource stop;

  /// Cooperative cancellation check, polled between splits and before each
  /// leaf.
  [[nodiscard]] bool cancelled() const { return stop.stop_requested(); }

  void run_leaf(std::int64_t lo, std::int64_t hi) {
    if (cancelled()) return;
    StopScope ambient(stop.token());
    try {
      PATTY_FAILPOINT("parallel_for.leaf");
      if (!telemetry) {
        invoke(ctx, lo, hi);
        return;
      }
      const std::uint64_t t0 = observe::now_us();
      invoke(ctx, lo, hi);
      const std::uint64_t dur = observe::now_us() - t0;
      LoopMetrics& m = loop_metrics();
      m.chunks.add();
      m.iterations.add(static_cast<std::uint64_t>(hi - lo));
      m.chunk_us.record(static_cast<double>(dur));
      observe::record_complete("pf.chunk", "loop", t0, dur,
                               std::to_string(lo) + ".." + std::to_string(hi));
    } catch (...) {
      group.capture_exception();
      stop.request_stop();
    }
  }
};

/// Split-half until the grain floor: spawn the right half (stealable from
/// the deque top — thieves get the biggest remaining piece), keep the left.
/// The midpoint is rounded up to a grain multiple, so every split point is
/// grain-aligned and an explicit grain G produces exactly ceil(range/G)
/// leaves of width <= G.
void run_range(SplitCtx& c, std::int64_t lo, std::int64_t hi) {
  while (hi - lo > c.grain) {
    if (c.cancelled()) return;  // faulted sibling: stop splitting, unwind
    const std::int64_t half = (hi - lo) / 2;
    const std::int64_t mid =
        lo + ((half + c.grain - 1) / c.grain) * c.grain;
    c.group.add(1);
    if (c.telemetry) loop_metrics().spawns.add();
    ThreadPool::shared().submit_fast([&c, mid, hi] {
      run_range(c, mid, hi);
      c.group.finish();
    });
    hi = mid;
  }
  c.run_leaf(lo, hi);
}

}  // namespace

namespace detail {

void parallel_for_driver(std::int64_t begin, std::int64_t end,
                         ChunkInvoker invoke, void* ctx,
                         const ParallelForTuning& tuning) {
  if (begin >= end) return;
  const std::int64_t range = end - begin;
  const std::int64_t threads = effective_threads(tuning);
  const bool telemetry = observe::enabled();
  if (telemetry) loop_metrics().loops.add();
  if (stop_requested()) throw OperationCancelled("parallel_for");
  if (tuning.sequential || threads <= 1 || range == 1) {
    if (telemetry) loop_metrics().sequential_fallbacks.add();
    invoke(ctx, begin, end);
    return;
  }
  const std::int64_t grain = effective_grain(range, tuning, threads);
  observe::Span span("parallel_for", "loop");
  span.set_detail("range=" + std::to_string(range) +
                  " grain=" + std::to_string(grain) +
                  " threads=" + std::to_string(threads));
  SplitCtx c{invoke, ctx, grain, telemetry, {},
             StopSource(current_stop_token())};
  // The caller participates: it keeps splitting left halves and runs leaves
  // itself while pool workers steal and process the spawned right halves.
  // The helping join makes this safe from inside a pool task too — a worker
  // joining a nested loop keeps executing pool work (its own spawned halves
  // first, LIFO) instead of blocking pool capacity: inline-or-stolen.
  run_range(c, begin, end);
  ThreadPool::shared().wait_on(c.group);
  if (!c.stop.stop_requested()) return;
  if (c.group.faulted()) {
    if (telemetry) {
      loop_metrics().faults.add();
      observe::Registry::global().counter("fault.rethrown").add();
    }
    c.group.rethrow_if_faulted();
  }
  // Not our fault: the enclosing region (or its deadline) stopped us.
  throw OperationCancelled("parallel_for");
}

}  // namespace detail

void parallel_for_chunked(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& fn,
    ParallelForTuning tuning) {
  parallel_for_blocked(
      begin, end,
      [&fn](std::int64_t lo, std::int64_t hi) { fn(lo, hi); }, tuning);
}

void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& fn,
                  ParallelForTuning tuning) {
  parallel_for_blocked(
      begin, end,
      [&fn](std::int64_t lo, std::int64_t hi) {
        for (std::int64_t i = lo; i < hi; ++i) fn(i);
      },
      tuning);
}

std::int64_t parallel_reduce(
    std::int64_t begin, std::int64_t end, std::int64_t init,
    const std::function<std::int64_t(std::int64_t)>& map,
    const std::function<std::int64_t(std::int64_t, std::int64_t)>& combine,
    ParallelForTuning tuning) {
  std::mutex result_mutex;
  std::int64_t result = init;
  parallel_for_blocked(
      begin, end,
      [&](std::int64_t lo, std::int64_t hi) {
        std::int64_t partial = init;
        for (std::int64_t i = lo; i < hi; ++i)
          partial = combine(partial, map(i));
        std::scoped_lock lock(result_mutex);
        result = combine(result, partial);
      },
      tuning);
  return result;
}

}  // namespace patty::rt
