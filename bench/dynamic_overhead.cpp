// Reproduces the §5 measurement plan: "quantify the runtime overhead by the
// dynamic analysis ... measure the runtime and memory increase". Each
// corpus program runs once plain and once under the full dynamic analysis
// (profiler: execution counts, inclusive costs, observed dependences); the
// profile's extra heap bytes are reported as a counter.
//
// The same discipline applies to our own telemetry: the BM_Telemetry_* pair
// runs an instrumented pipeline with observability off and on, and the
// custom main() below prints an overhead report (target: <5% enabled,
// indistinguishable from baseline disabled).
//
//   --assert-smoke  skip google-benchmark; time profiled and plain runs of
//                   each program in interleaved pairs, print the medians and
//                   quartiles (EXPERIMENTS E4), and exit 1 if the median
//                   ratio on raytracer or matrix exceeds 4x

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <vector>

#include "analysis/interpreter.hpp"
#include "analysis/profiler.hpp"
#include "corpus/corpus.hpp"
#include "lang/sema.hpp"
#include "observe/trace.hpp"
#include "runtime/pipeline.hpp"
#include "support/stats.hpp"

namespace {

using namespace patty;

const lang::Program& program_for(const corpus::CorpusProgram& source) {
  static std::map<std::string, std::unique_ptr<lang::Program>> cache;
  auto it = cache.find(source.name);
  if (it == cache.end()) {
    DiagnosticSink diags;
    auto parsed = lang::parse_and_check(source.source, diags);
    if (!parsed) throw std::runtime_error(diags.to_string());
    it = cache.emplace(source.name, std::move(parsed)).first;
  }
  return *it->second;
}

void run_plain(benchmark::State& state, const corpus::CorpusProgram& source) {
  const lang::Program& program = program_for(source);
  for (auto _ : state) {
    analysis::Interpreter interp(program);
    benchmark::DoNotOptimize(interp.run_main());
  }
}

void run_profiled(benchmark::State& state,
                  const corpus::CorpusProgram& source) {
  const lang::Program& program = program_for(source);
  std::size_t footprint = 0;
  for (auto _ : state) {
    analysis::Profiler profiler(program);
    analysis::Interpreter interp(program, &profiler);
    benchmark::DoNotOptimize(interp.run_main());
    profiler.finish();
    footprint = profiler.memory_footprint();
  }
  state.counters["profile_bytes"] =
      benchmark::Counter(static_cast<double>(footprint));
}

void BM_AviStream_Plain(benchmark::State& state) {
  run_plain(state, corpus::avistream());
}
void BM_AviStream_DynamicAnalysis(benchmark::State& state) {
  run_profiled(state, corpus::avistream());
}
void BM_RayTracer_Plain(benchmark::State& state) {
  run_plain(state, corpus::raytracer());
}
void BM_RayTracer_DynamicAnalysis(benchmark::State& state) {
  run_profiled(state, corpus::raytracer());
}
void BM_Matrix_Plain(benchmark::State& state) {
  run_plain(state, corpus::matrix());
}
void BM_Matrix_DynamicAnalysis(benchmark::State& state) {
  run_profiled(state, corpus::matrix());
}
void BM_DesktopSearch_Plain(benchmark::State& state) {
  run_plain(state, corpus::desktop_search());
}
void BM_DesktopSearch_DynamicAnalysis(benchmark::State& state) {
  run_profiled(state, corpus::desktop_search());
}

BENCHMARK(BM_AviStream_Plain)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AviStream_DynamicAnalysis)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RayTracer_Plain)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RayTracer_DynamicAnalysis)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Matrix_Plain)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Matrix_DynamicAnalysis)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DesktopSearch_Plain)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DesktopSearch_DynamicAnalysis)->Unit(benchmark::kMillisecond);

// --- Telemetry overhead -----------------------------------------------------

/// One instrumented pipeline run: three stages over kElements items with
/// tens of microseconds of work per item, the granularity the runtime
/// instruments in anger (telemetry cost per item-stage is a few clock reads
/// plus one ring write, so it only amortizes against real stage work).
double run_pipeline_once() {
  constexpr int kElements = 400;
  std::vector<rt::Pipeline<int>::Stage> stages;
  auto burn = [](int units) {
    volatile int spin = units * 8000;
    while (spin > 0) --spin;
  };
  stages.push_back({"produce", [&burn](int&) { burn(4); }, 1, false, false});
  stages.push_back({"work", [&burn](int&) { burn(8); }, 2, true, false});
  stages.push_back({"consume", [&burn](int&) { burn(4); }, 1, false, false});
  rt::Pipeline<int> pipeline(std::move(stages));
  const auto start = std::chrono::steady_clock::now();
  int next = 0;
  pipeline.run(
      [&next]() -> std::optional<int> {
        if (next >= kElements) return std::nullopt;
        return next++;
      },
      [](int&&) {});
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void BM_Telemetry_Off(benchmark::State& state) {
  observe::set_enabled(false);
  for (auto _ : state) benchmark::DoNotOptimize(run_pipeline_once());
}

void BM_Telemetry_On(benchmark::State& state) {
  observe::set_enabled(true);
  for (auto _ : state) benchmark::DoNotOptimize(run_pipeline_once());
  observe::set_enabled(false);
  observe::clear();
}

BENCHMARK(BM_Telemetry_Off)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Telemetry_On)->Unit(benchmark::kMillisecond);

double median_of(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

/// Direct off/on comparison with medians (benchmark output alone leaves the
/// reader to do the division). Also times the bare enabled() guard, which is
/// everything a disabled build pays per instrumentation site.
void print_telemetry_overhead_report() {
  constexpr int kReps = 21;
  std::vector<double> off, on;
  observe::set_enabled(false);
  run_pipeline_once();  // warm the shared state before timing
  // Interleave the off/on samples so slow machine-load drift (this runs on a
  // shared host) lands on both sides instead of biasing one median.
  for (int i = 0; i < kReps; ++i) {
    observe::set_enabled(false);
    off.push_back(run_pipeline_once());
    observe::set_enabled(true);
    on.push_back(run_pipeline_once());
  }
  observe::set_enabled(false);
  observe::clear();

  const double off_ms = median_of(off) * 1e3;
  const double on_ms = median_of(on) * 1e3;
  const double overhead = off_ms > 0.0 ? (on_ms / off_ms - 1.0) * 100.0 : 0.0;

  constexpr int kGuardLoops = 1'000'000;
  const auto g0 = std::chrono::steady_clock::now();
  bool sink = false;
  for (int i = 0; i < kGuardLoops; ++i) sink ^= observe::enabled();
  benchmark::DoNotOptimize(sink);
  const double guard_ns =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - g0)
          .count() /
      kGuardLoops;

  std::printf("\n--- telemetry overhead (instrumented pipeline, median of %d "
              "runs) ---\n",
              kReps);
  std::printf("observability off: %8.3f ms\n", off_ms);
  std::printf("observability on:  %8.3f ms  (overhead %+.1f%%, target <5%%)\n",
              on_ms, overhead);
  std::printf("disabled guard:    %8.3f ns per observe::enabled() call "
              "(the entire per-site cost when off)\n",
              guard_ns);
}

/// One full dynamic analysis, as SemanticModel::build runs it: the profiled
/// run plus the fold of its results. Returns the profile's heap bytes.
std::size_t profile_once(const lang::Program& program) {
  analysis::Profiler profiler(program);
  analysis::Interpreter interp(program, &profiler);
  benchmark::DoNotOptimize(interp.run_main());
  profiler.finish();
  return profiler.memory_footprint();
}

/// EXPERIMENTS E4 and its perf-smoke gate. Each pair times kRuns plain
/// and kRuns profiled runs back to back, alternating which goes first, so
/// drift on a shared host lands on both sides; the ratio is per pair.
bool overhead_smoke() {
  constexpr int kPairs = 15;
  constexpr int kRuns = 5;
  constexpr double kMaxRatio = 4.0;
  const auto time_ms = [](auto&& body) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < kRuns; ++r) body();
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
               .count() /
           kRuns;
  };
  struct Row {
    const corpus::CorpusProgram& source;
    bool gated;
  };
  const Row rows[] = {{corpus::avistream(), false},
                      {corpus::desktop_search(), false},
                      {corpus::raytracer(), true},
                      {corpus::matrix(), true}};
  std::printf("--- dynamic-analysis overhead (median [q25, q75] of %d "
              "interleaved pairs, %d runs each) ---\n",
              kPairs, kRuns);
  bool ok = true;
  for (const Row& row : rows) {
    const lang::Program& program = program_for(row.source);
    std::size_t bytes = 0;
    const auto plain = [&program] {
      analysis::Interpreter interp(program);
      benchmark::DoNotOptimize(interp.run_main());
    };
    const auto profiled = [&program, &bytes] { bytes = profile_once(program); };
    plain();  // warm-up
    profiled();
    std::vector<double> plain_ms, profiled_ms, ratio;
    for (int pair = 0; pair < kPairs; ++pair) {
      double p = 0.0, q = 0.0;
      if (pair % 2 == 0) {
        p = time_ms(plain);
        q = time_ms(profiled);
      } else {
        q = time_ms(profiled);
        p = time_ms(plain);
      }
      plain_ms.push_back(p);
      profiled_ms.push_back(q);
      ratio.push_back(q / p);
    }
    const Quantiles pq(plain_ms), qq(profiled_ms), rq(ratio);
    const bool pass = !row.gated || rq.q(0.5) <= kMaxRatio;
    const char* verdict = !row.gated ? ""
                          : pass     ? "  (gate <= 4x: ok)"
                                     : "  (gate <= 4x: FAIL)";
    ok = ok && pass;
    std::printf("%-15s plain %.3f [%.3f, %.3f] ms  profiled %.3f [%.3f, "
                "%.3f] ms  ratio %.2fx [%.2f, %.2f]  profile %.1f KB%s\n",
                row.source.name.c_str(), pq.q(0.5), pq.q(0.25), pq.q(0.75),
                qq.q(0.5), qq.q(0.25), qq.q(0.75), rq.q(0.5), rq.q(0.25),
                rq.q(0.75), static_cast<double>(bytes) / 1024.0, verdict);
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--assert-smoke") == 0)
      return overhead_smoke() ? 0 : 1;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  print_telemetry_overhead_report();
  return 0;
}
