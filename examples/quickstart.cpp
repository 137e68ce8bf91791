// Quickstart: the whole pattern-based parallelization process (figure 1)
// on the paper's running example, end to end:
//
//   1. Model creation      — semantic model (CFG x deps x call graph x profile)
//   2. Pattern analysis    — source-pattern detection, TADL expression
//   3. Tunable architecture — annotated source + tuning configuration
//   4. Code transform      — parallel code (figure 3d) + executable plan
//
// plus the generated parallel unit tests and a correctness check that the
// parallel execution matches the sequential output.

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "analysis/semantic_model.hpp"
#include "corpus/corpus.hpp"
#include "lang/sema.hpp"
#include "observe/explain.hpp"
#include "observe/trace.hpp"
#include "patterns/detector.hpp"
#include "tadl/annotator.hpp"
#include "transform/codegen.hpp"
#include "transform/plan.hpp"
#include "transform/testgen.hpp"
#include "tuning/model.hpp"

int main() {
  using namespace patty;

  // PATTY_TRACE=<file> records a Chrome trace of the run (see README).
  const char* trace_path = std::getenv("PATTY_TRACE");
  if (trace_path && *trace_path) observe::set_enabled(true);

  const corpus::CorpusProgram& example = corpus::avistream();
  std::printf("=== Input: %s (%zu LoC) ===\n%s\n", example.name.c_str(),
              example.loc(), example.source.c_str());

  // Phase 1: model creation (static analyses + profiled execution).
  DiagnosticSink diags;
  auto program = lang::parse_and_check(example.source, diags);
  if (!program) {
    std::fprintf(stderr, "frontend failed:\n%s", diags.to_string().c_str());
    return 1;
  }
  auto model = analysis::SemanticModel::build(*program);
  std::printf("=== Phase 1: semantic model ===\n");
  std::printf("methods: %zu, loops: %zu, profiled cost: %llu units\n\n",
              model->call_graph().methods.size(), model->loops().size(),
              static_cast<unsigned long long>(model->profile()->total_cost()));

  // Phase 2: source pattern detection.
  auto detection = patterns::detect_all(*model);
  // Design-time prediction: what the cost model says each region is worth
  // before any transformation runs (DESIGN.md §13). Predict for the paper's
  // quad-core target so the numbers are meaningful on single-core hosts too.
  tuning::annotate_predicted_speedups(detection.candidates,
                                      tuning::Hardware{4});
  std::printf("=== Phase 2: pattern analysis ===\n");
  for (const patterns::Candidate& c : detection.candidates) {
    std::printf("  %-18s @ line %u  runtime %4.1f%%  predicted %.2fx  "
                "TADL: %s\n",
                pattern_kind_name(c.kind), c.anchor->range.begin.line,
                100.0 * c.runtime_share, c.predicted_speedup, c.tadl.c_str());
  }
  for (const patterns::RejectedLoop& r : detection.rejected) {
    std::printf("  rejected loop @ line %u (%s): %s\n",
                r.loop->range.begin.line, r.rule.c_str(), r.reason.c_str());
  }
  std::printf("\n");

  // Phase 3: tunable architecture — annotated source + tuning config.
  const patterns::Candidate& top = detection.candidates.front();
  transform::TransformationArtifacts artifacts =
      transform::make_artifacts(*program, top);
  std::printf("=== Phase 3: annotated source (figure 3b) ===\n%s\n",
              artifacts.annotated_source.c_str());
  std::printf("=== Tuning configuration (figure 3c) ===\n%s\n",
              artifacts.tuning_file.c_str());

  // Phase 4: code transform.
  std::printf("=== Phase 4: parallel code (figure 3d) ===\n%s\n",
              artifacts.parallel_source.c_str());

  // Generated parallel unit tests (correctness validation).
  auto tests = transform::generate_unit_tests(detection.candidates);
  std::printf("=== Generated parallel unit tests ===\n");
  for (const auto& t : tests) {
    const transform::TestOutcome outcome =
        transform::run_unit_test(*program, t, 2);
    std::printf("  %-55s %s (%s)\n", t.name.c_str(),
                outcome.passed ? "PASS"
                : t.expects_possible_order_violation
                    ? "order probe"
                    : "FAIL",
                outcome.detail.c_str());
  }

  // Execute the transformed program and compare with sequential.
  analysis::Interpreter reference(*program);
  reference.run_main();
  transform::ParallelPlanExecutor executor(*program, detection.candidates,
                                           nullptr);
  executor.run_main();
  std::printf("\n=== Execution ===\nsequential output: %sparallel output:   %s",
              reference.output().c_str(), executor.output().c_str());
  // No tuning file: the executor's gate ran every region predicted to slow
  // down sequentially; each report says which way it went and why.
  for (const transform::PlanReport& r : executor.reports())
    std::printf("  %-18s stmt %-4d %s%s%s\n",
                patterns::pattern_kind_name(r.kind), r.loop_stmt_id,
                r.ran_parallel ? "parallel" : "sequential",
                r.note.empty() ? "" : ": ", r.note.c_str());
  std::printf("outputs %s\n",
              reference.output() == executor.output() ? "MATCH" : "DIFFER");

  if (trace_path && *trace_path) {
    if (auto obs = observe::latest_pipeline()) {
      std::printf("\n=== Pipeline telemetry ===\n%s\n",
                  observe::render(*obs).c_str());
    }
    const observe::TraceSnapshot trace = observe::drain();
    std::ofstream out(trace_path, std::ios::binary);
    out << observe::chrome_trace_json(trace);
    std::printf("wrote %s (%zu events) -- open in chrome://tracing or "
                "ui.perfetto.dev\n",
                trace_path, trace.events.size());
  }
  return reference.output() == executor.output() ? 0 : 1;
}
