// Program validation mode (operation mode 4, §3 R3): performance
// validation. The transformed application and its tuning configuration
// exist; the auto tuner repeatedly initializes the program with parameter
// values, executes it, measures the runtime, and computes new values
// (figure 4c) — no source-code insight required.

#include <chrono>
#include <cstdio>
#include <fstream>

#include "analysis/semantic_model.hpp"
#include "corpus/corpus.hpp"
#include "lang/sema.hpp"
#include "observe/explain.hpp"
#include "observe/metrics.hpp"
#include "observe/trace.hpp"
#include "patterns/detector.hpp"
#include "transform/plan.hpp"
#include "tuning/tuner.hpp"

int main() {
  using namespace patty;

  // Telemetry on for the whole demo: every MeasureFn call becomes a
  // "tuner.eval" trace span and every pipeline run publishes per-stage
  // metrics that observe::explain turns into tuning advice.
  observe::set_enabled(true);

  // The transformed application: the avistream pipeline plan.
  const corpus::CorpusProgram& app = corpus::avistream();
  DiagnosticSink diags;
  auto program = lang::parse_and_check(app.source, diags);
  if (!program) return 1;
  auto model = analysis::SemanticModel::build(*program);
  auto detection = patterns::detect_all(*model);
  rt::TuningConfig config = transform::default_tuning(detection.candidates);

  std::printf("Tuning configuration (%zu parameters, search space %llu):\n%s\n",
              config.size(),
              static_cast<unsigned long long>(config.search_space_size()),
              config.serialize().c_str());

  auto measure = [&](const rt::TuningConfig& candidate) {
    transform::ParallelPlanExecutor executor(*program, detection.candidates,
                                             &candidate);
    const auto start = std::chrono::steady_clock::now();
    executor.run_main();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  const double before = measure(config);
  std::printf("untuned runtime: %.4f s\n\n", before);

  auto tuner = tuning::make_linear_tuner();
  const tuning::TuningRun run = tuner->tune(config, measure, 60);

  std::printf("tuning cycle (%s, %zu evaluations):\n", tuner->name().c_str(),
              run.evaluations);
  double best_so_far = run.history.front().score;
  for (std::size_t i = 0; i < run.history.size(); ++i) {
    best_so_far = std::min(best_so_far, run.history[i].score);
    if (i % 8 == 0 || i + 1 == run.history.size()) {
      std::printf("  eval %3zu: measured %.4f s (best so far %.4f s)\n", i,
                  run.history[i].score, best_so_far);
    }
  }
  std::printf("\nbest configuration (runtime %.4f s, %.2fx over untuned):\n",
              run.best_score, before / run.best_score);
  for (const auto& [name, p] : run.best.params()) {
    std::printf("  %s = %lld\n", name.c_str(), static_cast<long long>(p.value));
  }

  // Re-run the best configuration once so the freshest pipeline observation
  // reflects the tuned program, then explain where the time went.
  measure(run.best);
  if (auto obs = observe::latest_pipeline()) {
    std::printf("\nper-stage telemetry of the tuned run:\n%s\n",
                observe::render(*obs).c_str());
  }

  std::printf("runtime metrics:\n%s\n",
              observe::Registry::global().snapshot().str().c_str());

  // Chrome trace: one slice per tuner evaluation and per stage item.
  const observe::TraceSnapshot trace = observe::drain();
  const char* trace_path = "autotune_trace.json";
  std::ofstream out(trace_path, std::ios::binary);
  out << observe::chrome_trace_json(trace);
  out.close();
  std::printf("trace summary (%zu events):\n%s\n", trace.events.size(),
              observe::trace_summary(trace).c_str());
  std::printf("wrote %s -- open in chrome://tracing or ui.perfetto.dev\n",
              trace_path);
  return 0;
}
