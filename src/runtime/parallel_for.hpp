#pragma once
// Data-parallel loop pattern (paper §2: the third implemented pattern).
// Work-stealing range splitting over the shared pool: the caller recursively
// halves its range, spawning the right half into its own deque (idle workers
// steal the biggest pieces from the top) and keeping the left half, until
// chunks reach the grain floor. Split points are grain-aligned, so an
// explicit grain G yields exactly ceil(range/G) chunks, each at most G wide.
// Tuning parameters: thread count, grain size, and the SequentialExecution
// escape hatch.

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>

namespace patty::rt {

struct ParallelForTuning {
  int threads = 0;         // 0 = hardware concurrency
  std::int64_t grain = 0;  // 0 = auto (range / (threads * 8), at least 1)
  bool sequential = false;
};

namespace detail {
using ChunkInvoker = void (*)(void* ctx, std::int64_t lo, std::int64_t hi);

/// Non-template driver behind every loop entry point: splitting, spawning,
/// telemetry. `invoke(ctx, lo, hi)` runs one chunk.
void parallel_for_driver(std::int64_t begin, std::int64_t end,
                         ChunkInvoker invoke, void* ctx,
                         const ParallelForTuning& tuning);
}  // namespace detail

/// Template fast path: the chunk body is called through a function pointer
/// + context, never wrapped in std::function — no per-chunk type-erasure
/// allocation. fn(lo, hi) must tolerate concurrent invocation on disjoint
/// subranges.
template <typename ChunkFn>
void parallel_for_blocked(std::int64_t begin, std::int64_t end, ChunkFn&& fn,
                          ParallelForTuning tuning = {}) {
  using Fn = std::remove_reference_t<ChunkFn>;
  detail::parallel_for_driver(
      begin, end,
      [](void* ctx, std::int64_t lo, std::int64_t hi) {
        (*static_cast<Fn*>(ctx))(lo, hi);
      },
      const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
      tuning);
}

/// Invoke fn(i) for every i in [begin, end). Iterations must be independent
/// (that is what the detector verified before emitting this pattern).
void parallel_for(std::int64_t begin, std::int64_t end,
                  const std::function<void(std::int64_t)>& fn,
                  ParallelForTuning tuning = {});

/// Chunked variant: fn(lo, hi) per chunk — lets callers hoist per-chunk
/// state and is what the code generator emits.
void parallel_for_chunked(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& fn,
    ParallelForTuning tuning = {});

/// Reduction: combine(map(i)) over [begin, end) with identity `init`.
/// combine must be associative; per-thread partials keep it race-free.
std::int64_t parallel_reduce(
    std::int64_t begin, std::int64_t end, std::int64_t init,
    const std::function<std::int64_t(std::int64_t)>& map,
    const std::function<std::int64_t(std::int64_t, std::int64_t)>& combine,
    ParallelForTuning tuning = {});

}  // namespace patty::rt
