// Reproduces the §5 early performance result: code transformed by the
// pattern-based process achieves "parallel performance close to manual
// parallelization", within minutes instead of days. For each corpus
// program we measure, on the host's real cores:
//   Sequential  — the untransformed program (tree-walking interpreter),
//   PattyDefault — the parallel plan with no tuning file, so the executor's
//                  prediction gate picks the regions that run in parallel,
//   PattyAuto   — the parallel plan under the auto-tuned configuration,
//   Manual      — the parallel plan under a hand-picked expert
//                 configuration (the "skilled engineer" comparator).
// The shape to reproduce: Sequential > PattyAuto ~ Manual. Every plan row
// includes executor construction, as a tuning run's measurement does.

#include <benchmark/benchmark.h>

#include <chrono>

#include "analysis/interpreter.hpp"
#include "analysis/semantic_model.hpp"
#include "corpus/corpus.hpp"
#include "lang/sema.hpp"
#include "patterns/detector.hpp"
#include "transform/plan.hpp"
#include "tuning/tuner.hpp"

namespace {

using namespace patty;

struct Prepared {
  std::unique_ptr<lang::Program> program;
  std::vector<patterns::Candidate> candidates;
  rt::TuningConfig default_config;
  rt::TuningConfig manual_config;  // expert values: replicate + threads
  rt::TuningConfig tuned_config;   // linear auto-tuner result
};

Prepared prepare(const corpus::CorpusProgram& source) {
  Prepared p;
  DiagnosticSink diags;
  p.program = lang::parse_and_check(source.source, diags);
  if (!p.program) throw std::runtime_error(diags.to_string());
  auto model = analysis::SemanticModel::build(*p.program);
  auto detection = patterns::detect_all(*model);
  p.candidates = std::move(detection.candidates);
  p.default_config = transform::default_tuning(p.candidates);

  // "Manual": what a skilled engineer would pick — replicate replicable
  // stages 4x, 4 worker threads, coarse grain.
  p.manual_config = p.default_config;
  for (const auto& [name, param] : p.manual_config.params()) {
    (void)param;
    if (name.find(".replication") != std::string::npos)
      p.manual_config.set(name, 4);
    if (name.find(".threads") != std::string::npos)
      p.manual_config.set(name, 4);
  }

  // Auto-tuned with the paper's linear search, measuring real plan runs.
  auto measure = [&](const rt::TuningConfig& config) {
    transform::ParallelPlanExecutor executor(*p.program, p.candidates,
                                             &config);
    const auto start = std::chrono::steady_clock::now();
    executor.run_main();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  auto tuner = tuning::make_linear_tuner();
  p.tuned_config = tuner->tune(p.default_config, measure, 60).best;
  return p;
}

Prepared& avistream() {
  static Prepared p = prepare(corpus::avistream());
  return p;
}
Prepared& matrix() {
  static Prepared p = prepare(corpus::matrix());
  return p;
}
Prepared& raytracer() {
  static Prepared p = prepare(corpus::raytracer());
  return p;
}

void run_sequential(benchmark::State& state, Prepared& p) {
  for (auto _ : state) {
    analysis::Interpreter interp(*p.program);
    benchmark::DoNotOptimize(interp.run_main());
  }
}

/// `config` null: no tuning file, the executor's gate decides.
void run_plan(benchmark::State& state, Prepared& p,
              const rt::TuningConfig* config) {
  for (auto _ : state) {
    transform::ParallelPlanExecutor executor(*p.program, p.candidates,
                                             config);
    benchmark::DoNotOptimize(executor.run_main());
  }
}

/// Executor construction alone (design-time predictions, plans): the
/// set-up every plan iteration pays before its run.
void run_setup(benchmark::State& state, Prepared& p) {
  for (auto _ : state) {
    transform::ParallelPlanExecutor executor(*p.program, p.candidates,
                                             &p.tuned_config);
    benchmark::DoNotOptimize(executor);
  }
}

void BM_AviStream_Sequential(benchmark::State& state) {
  run_sequential(state, avistream());
}
void BM_AviStream_PattyDefault(benchmark::State& state) {
  run_plan(state, avistream(), nullptr);
}
void BM_AviStream_PattyAuto(benchmark::State& state) {
  run_plan(state, avistream(), &avistream().tuned_config);
}
void BM_AviStream_Manual(benchmark::State& state) {
  run_plan(state, avistream(), &avistream().manual_config);
}
void BM_AviStream_Setup(benchmark::State& state) {
  run_setup(state, avistream());
}

void BM_Matrix_Sequential(benchmark::State& state) {
  run_sequential(state, matrix());
}
void BM_Matrix_PattyDefault(benchmark::State& state) {
  run_plan(state, matrix(), nullptr);
}
void BM_Matrix_PattyAuto(benchmark::State& state) {
  run_plan(state, matrix(), &matrix().tuned_config);
}
void BM_Matrix_Manual(benchmark::State& state) {
  run_plan(state, matrix(), &matrix().manual_config);
}
void BM_Matrix_Setup(benchmark::State& state) {
  run_setup(state, matrix());
}

void BM_RayTracer_Sequential(benchmark::State& state) {
  run_sequential(state, raytracer());
}
void BM_RayTracer_PattyDefault(benchmark::State& state) {
  run_plan(state, raytracer(), nullptr);
}
void BM_RayTracer_PattyAuto(benchmark::State& state) {
  run_plan(state, raytracer(), &raytracer().tuned_config);
}
void BM_RayTracer_Manual(benchmark::State& state) {
  run_plan(state, raytracer(), &raytracer().manual_config);
}
void BM_RayTracer_Setup(benchmark::State& state) {
  run_setup(state, raytracer());
}

BENCHMARK(BM_AviStream_Sequential)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AviStream_PattyDefault)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AviStream_PattyAuto)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AviStream_Manual)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AviStream_Setup)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Matrix_Sequential)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Matrix_PattyDefault)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Matrix_PattyAuto)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Matrix_Manual)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Matrix_Setup)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_RayTracer_Sequential)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RayTracer_PattyDefault)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RayTracer_PattyAuto)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RayTracer_Manual)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RayTracer_Setup)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
