// Ablation of the §2.2 PLTP tuning parameters, one benchmark family per
// claim:
//   StageReplication    — "a stage replication value of two effectively
//                          doubles the frequency at which this stage is
//                          capable of receiving and producing elements"
//   StageFusion         — "if the runtime share of a stage is rather low,
//                          thread and buffer overhead outweigh the
//                          advantage" -> fusing tiny stages wins
//   OrderPreservation   — restoring stream order costs a little throughput
//   SequentialExecution — "pipeline execution never leads to a slowdown in
//                          comparison to the former sequential version" for
//                          streams too short to amortize threading
//
// Every stage burns real CPU, so the rows measure what the host's cores
// deliver: run with --benchmark_repetitions=N for medians and spread.

#include <benchmark/benchmark.h>

#include <optional>

#include "runtime/pipeline.hpp"

namespace {

using patty::rt::Pipeline;
using patty::rt::PipelineConfig;

struct Elem {
  int id = 0;
};

void burn(int units) {
  volatile int spin = units * 1200;
  while (spin > 0) --spin;
}

std::function<std::optional<Elem>()> source(int n) {
  auto next = std::make_shared<int>(0);
  return [next, n]() -> std::optional<Elem> {
    if (*next >= n) return std::nullopt;
    return Elem{(*next)++};
  };
}

/// StageReplication: bottleneck stage with 4x work, replication swept.
void BM_StageReplication(benchmark::State& state) {
  const int replication = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Pipeline<Elem> p({
        {"pre", [](Elem&) { burn(15); }, 1, false, false},
        {"heavy", [](Elem&) { burn(60); }, replication, true, false},
        {"post", [](Elem&) { burn(15); }, 1, false, false},
    });
    auto stats = p.run(source(200), [](Elem&&) {});
    benchmark::DoNotOptimize(stats.elements);
  }
}
BENCHMARK(BM_StageReplication)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// StageFusion: four tiny stages, fused vs unfused.
void BM_StageFusion(benchmark::State& state) {
  const bool fused = state.range(0) != 0;
  for (auto _ : state) {
    Pipeline<Elem> p({
        {"a", [](Elem& e) { e.id += 1; }, 1, false, fused},
        {"b", [](Elem& e) { e.id *= 3; }, 1, false, fused},
        {"c", [](Elem& e) { e.id -= 2; }, 1, false, fused},
        {"d", [](Elem& e) { e.id %= 9973; }, 1, false, false},
    });
    auto stats = p.run(source(4000), [](Elem&&) {});
    benchmark::DoNotOptimize(stats.elements);
  }
}
BENCHMARK(BM_StageFusion)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// OrderPreservation: replicated stage with jittery per-element work.
void BM_OrderPreservation(benchmark::State& state) {
  const bool preserve = state.range(0) != 0;
  for (auto _ : state) {
    Pipeline<Elem> p({{"jitter",
                       [](Elem& e) { burn(10 + 10 * (e.id % 5)); }, 4,
                       preserve, false}});
    auto stats = p.run(source(300), [](Elem&&) {});
    benchmark::DoNotOptimize(stats.elements);
  }
}
BENCHMARK(BM_OrderPreservation)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// SequentialExecution: a short stream of cheap elements — threading
/// overhead dominates, the sequential fallback must win.
void BM_ShortStream(benchmark::State& state) {
  const bool sequential = state.range(0) != 0;
  PipelineConfig config;
  config.sequential = sequential;
  for (auto _ : state) {
    Pipeline<Elem> p(
        {
            {"a", [](Elem& e) { e.id += 1; }, 2, true, false},
            {"b", [](Elem& e) { e.id *= 2; }, 1, false, false},
        },
        config);
    auto stats = p.run(source(8), [](Elem&&) {});
    benchmark::DoNotOptimize(stats.elements);
  }
}
BENCHMARK(BM_ShortStream)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

/// Long stream for contrast: parallel wins despite the same stage mix.
void BM_LongStream(benchmark::State& state) {
  const bool sequential = state.range(0) != 0;
  PipelineConfig config;
  config.sequential = sequential;
  for (auto _ : state) {
    Pipeline<Elem> p(
        {
            {"a", [](Elem&) { burn(30); }, 2, true, false},
            {"b", [](Elem&) { burn(15); }, 1, false, false},
        },
        config);
    auto stats = p.run(source(300), [](Elem&&) {});
    benchmark::DoNotOptimize(stats.elements);
  }
}
BENCHMARK(BM_LongStream)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
