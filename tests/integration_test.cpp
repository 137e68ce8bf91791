// End-to-end integration tests over the full process model (figure 1):
// source text in, semantic model, detection, annotation, transformation,
// parallel execution, generated tests, tuning — all phases chained, on
// every corpus program, with observational equivalence as the oracle.

#include <gtest/gtest.h>

#include "analysis/semantic_model.hpp"
#include "corpus/corpus.hpp"
#include "lang/printer.hpp"
#include "lang/sema.hpp"
#include "patterns/detector.hpp"
#include "tadl/annotator.hpp"
#include "transform/codegen.hpp"
#include "transform/plan.hpp"
#include "transform/testgen.hpp"
#include "tuning/tuner.hpp"

namespace patty {
namespace {

class EndToEnd : public ::testing::TestWithParam<int> {
 protected:
  const corpus::CorpusProgram& source() const {
    return *corpus::handwritten()[static_cast<std::size_t>(GetParam())];
  }
};

TEST_P(EndToEnd, FullProcessModelPreservesSemantics) {
  const corpus::CorpusProgram& src = source();
  DiagnosticSink diags;
  auto program = lang::parse_and_check(src.source, diags);
  ASSERT_TRUE(program) << src.name << "\n" << diags.to_string();

  // Phase 1: semantic model with dynamic analysis.
  auto model = analysis::SemanticModel::build(*program);
  ASSERT_NE(model->profile(), nullptr);
  EXPECT_GT(model->profile()->total_cost(), 0u);

  // Phase 2: detection.
  auto detection = patterns::detect_all(*model);

  // Sequential reference BEFORE transformation.
  analysis::Interpreter reference(*program);
  const analysis::Value ref_result = reference.run_main();
  const std::string ref_output = reference.output();

  // Phase 3: annotation round-trips through source text.
  if (!detection.candidates.empty() &&
      detection.candidates[0].kind == patterns::PatternKind::Pipeline) {
    ASSERT_TRUE(tadl::insert_annotations(*program, detection.candidates[0]));
    const std::string annotated = lang::print_program(*program);
    EXPECT_NE(annotated.find("@tadl"), std::string::npos);
    DiagnosticSink diags2;
    auto reparsed = lang::parse_and_check(annotated, diags2);
    EXPECT_TRUE(reparsed) << src.name << "\n" << diags2.to_string();
    tadl::strip_annotations(*program);
  }

  // Phase 4: parallel plan, default tuning (given explicitly, so the
  // executor's prediction gate cannot run a region sequentially).
  const rt::TuningConfig config =
      transform::default_tuning(detection.candidates);
  transform::ParallelPlanExecutor executor(*program, detection.candidates,
                                           &config);
  const analysis::Value par_result = executor.run_main();
  EXPECT_TRUE(par_result.equals(ref_result)) << src.name;
  EXPECT_EQ(executor.output(), ref_output) << src.name;
}

TEST_P(EndToEnd, GeneratedTestsPassOnDefaultAndStressedConfigs) {
  const corpus::CorpusProgram& src = source();
  DiagnosticSink diags;
  auto program = lang::parse_and_check(src.source, diags);
  ASSERT_TRUE(program);
  auto model = analysis::SemanticModel::build(*program);
  auto detection = patterns::detect_all(*model);
  transform::TestGenOptions options;
  options.include_order_violation_probe = false;  // probes tested separately
  auto tests = transform::generate_unit_tests(detection.candidates, options);
  for (const auto& t : tests) {
    const transform::TestOutcome outcome =
        transform::run_unit_test(*program, t, 2);
    EXPECT_TRUE(outcome.passed) << src.name << " / " << t.name << ": "
                                << outcome.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(Corpus, EndToEnd, ::testing::Values(0, 1, 2, 3, 4),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return corpus::handwritten()
                               [static_cast<std::size_t>(info.param)]
                                   ->name;
                         });

TEST(IntegrationTest, TunedPlanStaysCorrect) {
  // Tune the avistream plan for real, then verify the best configuration
  // is still observationally equivalent (performance knobs never change
  // semantics).
  const corpus::CorpusProgram& src = corpus::avistream();
  DiagnosticSink diags;
  auto program = lang::parse_and_check(src.source, diags);
  ASSERT_TRUE(program);
  auto model = analysis::SemanticModel::build(*program);
  auto detection = patterns::detect_all(*model);
  rt::TuningConfig config = transform::default_tuning(detection.candidates);

  auto measure = [&](const rt::TuningConfig& c) {
    transform::ParallelPlanExecutor executor(*program, detection.candidates,
                                             &c);
    const auto start = std::chrono::steady_clock::now();
    executor.run_main();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  auto tuner = tuning::make_linear_tuner();
  const tuning::TuningRun run = tuner->tune(config, measure, 12);

  analysis::Interpreter reference(*program);
  reference.run_main();
  transform::ParallelPlanExecutor tuned(*program, detection.candidates,
                                        &run.best);
  tuned.run_main();
  EXPECT_EQ(tuned.output(), reference.output());
}

TEST(IntegrationTest, ArtifactBundleForEveryPipelineCandidate) {
  for (const corpus::CorpusProgram* src : corpus::handwritten()) {
    DiagnosticSink diags;
    auto program = lang::parse_and_check(src->source, diags);
    ASSERT_TRUE(program) << src->name;
    auto model = analysis::SemanticModel::build(*program);
    auto detection = patterns::detect_all(*model);
    for (const patterns::Candidate& c : detection.candidates) {
      transform::TransformationArtifacts artifacts =
          transform::make_artifacts(*program, c);
      EXPECT_FALSE(artifacts.parallel_source.empty()) << src->name;
      EXPECT_NE(artifacts.tuning_file.find("param"), std::string::npos);
      if (c.kind == patterns::PatternKind::Pipeline)
        EXPECT_NE(artifacts.annotated_source.find("@tadl"),
                  std::string::npos);
    }
    // All annotations must have been stripped again.
    EXPECT_EQ(lang::print_program(*program).find("@tadl"), std::string::npos)
        << src->name;
  }
}

TEST(IntegrationTest, OrderProbeDetectsNothingWhenOrderIrrelevant) {
  // For the matrix program (pure data-parallel, no ordered output), even
  // the order-violation probe must pass: order truly does not matter.
  const corpus::CorpusProgram& src = corpus::matrix();
  DiagnosticSink diags;
  auto program = lang::parse_and_check(src.source, diags);
  ASSERT_TRUE(program);
  auto model = analysis::SemanticModel::build(*program);
  auto detection = patterns::detect_all(*model);
  auto tests = transform::generate_unit_tests(detection.candidates);
  for (const auto& t : tests) {
    const transform::TestOutcome outcome =
        transform::run_unit_test(*program, t, 2);
    EXPECT_TRUE(outcome.passed) << t.name << ": " << outcome.detail;
  }
}

}  // namespace
}  // namespace patty
