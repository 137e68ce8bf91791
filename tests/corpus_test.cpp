// Corpus tests: every program parses, checks, runs deterministically; the
// ray tracer matches the paper's benchmark shape (13 classes, ~173 LoC,
// 3 ground-truth locations, 1 hotspot, 1 trap); the synthetic suite is
// deterministic and carries the designed TP/FN/FP/TN structure.

#include <gtest/gtest.h>

#include "analysis/interpreter.hpp"
#include "analysis/semantic_model.hpp"
#include "corpus/corpus.hpp"
#include "lang/sema.hpp"
#include "patterns/detector.hpp"

namespace patty::corpus {
namespace {

std::unique_ptr<lang::Program> parse(const CorpusProgram& p) {
  DiagnosticSink diags;
  auto program = lang::parse_and_check(p.source, diags);
  EXPECT_TRUE(program) << p.name << ": " << diags.to_string();
  return program;
}

TEST(CorpusTest, AllHandwrittenProgramsParseAndRun) {
  for (const CorpusProgram* p : handwritten()) {
    auto program = parse(*p);
    ASSERT_TRUE(program) << p->name;
    analysis::Interpreter interp(*program);
    EXPECT_NO_THROW(interp.run_main()) << p->name;
    EXPECT_FALSE(interp.output().empty()) << p->name;
  }
}

TEST(CorpusTest, HandwrittenProgramsAreDeterministic) {
  for (const CorpusProgram* p : handwritten()) {
    auto program = parse(*p);
    ASSERT_TRUE(program);
    analysis::Interpreter a(*program);
    a.run_main();
    analysis::Interpreter b(*program);
    b.run_main();
    EXPECT_EQ(a.output(), b.output()) << p->name;
  }
}

TEST(CorpusTest, RayTracerMatchesStudyBenchmarkShape) {
  const CorpusProgram& rt = raytracer();
  auto program = parse(rt);
  ASSERT_TRUE(program);
  // Paper: 13 classes, 173 lines of code.
  EXPECT_EQ(program->classes.size(), 13u);
  EXPECT_NEAR(static_cast<double>(rt.loc()), 173.0, 25.0);
  // 3 parallelizable locations + 1 trap.
  int positives = 0, negatives = 0;
  for (const TruthLocation& t : rt.truth)
    t.parallelizable ? ++positives : ++negatives;
  EXPECT_EQ(positives, 3);
  EXPECT_EQ(negatives, 1);
}

TEST(CorpusTest, RayTracerHotspotDominatesProfile) {
  // The paper: the built-in profiler reveals exactly one location — the
  // render loop must dominate the runtime distribution.
  const CorpusProgram& rt = raytracer();
  auto program = parse(rt);
  ASSERT_TRUE(program);
  auto model = analysis::SemanticModel::build(*program);
  double hot_share = 0.0;
  int above_20_percent = 0;
  for (const analysis::LoopInfo& li : model->loops()) {
    if (li.method->name != "main") continue;
    const double share = model->runtime_share(*li.loop);
    if (share > 0.2) ++above_20_percent;
    hot_share = std::max(hot_share, share);
  }
  EXPECT_GT(hot_share, 0.5);
  EXPECT_EQ(above_20_percent, 1);
}

TEST(CorpusTest, DetectorFindsAllThreeRayTracerLocationsAndNotTheTrap) {
  const DetectionScore score = score_program(raytracer(), /*optimistic=*/true);
  EXPECT_EQ(score.true_positives, 3);
  EXPECT_EQ(score.false_negatives, 0);
  EXPECT_EQ(score.false_positives, 0);  // the histogram trap is rejected
  EXPECT_EQ(score.true_negatives, 1);
}

TEST(CorpusTest, AviStreamPipelineDetected) {
  const DetectionScore score = score_program(avistream(), true);
  EXPECT_EQ(score.false_negatives, 0);
  EXPECT_GE(score.true_positives, 2);
}

TEST(CorpusTest, DesktopSearchPipelineDetected) {
  const DetectionScore score = score_program(desktop_search(), true);
  EXPECT_EQ(score.true_positives, 1);
  // The index stage appends to one shared list inside `Index.Add`, so it
  // must stay a single unreplicated stage (not a data-parallel loop).
  DiagnosticSink diags;
  auto program = lang::parse_and_check(desktop_search().source, diags);
  ASSERT_TRUE(program) << diags.to_string();
  auto model = analysis::SemanticModel::build(*program);
  const auto detection = patterns::detect_all(*model);
  ASSERT_FALSE(detection.candidates.empty());
  EXPECT_EQ(detection.candidates[0].kind, patterns::PatternKind::Pipeline);
  EXPECT_EQ(detection.candidates[0].tadl, "A+ => B+ => C+ => D");
}

TEST(CorpusTest, MatrixKernelsDetected) {
  const DetectionScore score = score_program(matrix(), true);
  EXPECT_EQ(score.true_positives, 3);
  EXPECT_EQ(score.false_positives, 0);
}

TEST(CorpusTest, HistogramTrapRejected) {
  const DetectionScore score = score_program(histogram(), true);
  EXPECT_EQ(score.true_positives, 1);   // the init loop
  EXPECT_EQ(score.false_positives, 0);  // shared bins rejected
  EXPECT_EQ(score.true_negatives, 1);
}

TEST(CorpusTest, SyntheticSuiteDeterministic) {
  auto a = synthetic_suite(3, 99);
  auto b = synthetic_suite(3, 99);
  ASSERT_EQ(a.size(), 3u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].source, b[i].source);
    EXPECT_EQ(a[i].truth.size(), b[i].truth.size());
  }
  auto c = synthetic_suite(3, 100);
  EXPECT_NE(a[0].source, c[0].source);
}

TEST(CorpusTest, SyntheticProgramsParseAndRun) {
  for (const CorpusProgram& p : synthetic_suite(4, 7)) {
    DiagnosticSink diags;
    auto program = lang::parse_and_check(p.source, diags);
    ASSERT_TRUE(program) << p.name << ": " << diags.to_string();
    analysis::Interpreter interp(*program);
    EXPECT_NO_THROW(interp.run_main()) << p.name;
  }
}

TEST(CorpusTest, SyntheticBlockHasDesignedStructure) {
  // Per even block: 5 TP (map, reduction, pipeline, cold induction-uniform
  // map, hot shifted map), 1 FP (indirect scatter), 2 TN (direct scatter,
  // recurrence), 0 FN; odd blocks add one FN (the cold *shifted* map that
  // the induction refinement cannot discharge).
  auto suite = synthetic_suite(2, 42);
  std::string error;
  const DetectionScore even = score_program(suite[0], true, &error);
  EXPECT_TRUE(error.empty()) << error;
  EXPECT_EQ(even.true_positives, 5);
  EXPECT_EQ(even.false_negatives, 0);
  EXPECT_EQ(even.false_positives, 1);
  EXPECT_EQ(even.true_negatives, 2);
  const DetectionScore odd = score_program(suite[1], true, &error);
  EXPECT_EQ(odd.true_positives, 5);
  EXPECT_EQ(odd.false_negatives, 1);
  EXPECT_EQ(odd.false_positives, 1);
  EXPECT_EQ(odd.true_negatives, 2);
}

TEST(CorpusTest, SyntheticConfigDefaultsMatchLegacyOverload) {
  // synthetic_suite(blocks, seed) is a shorthand for the default config;
  // study fingerprints and the BENCH corpus depend on byte identity.
  SyntheticConfig config;
  config.programs = 5;
  config.seed = 99;
  const auto via_config = synthetic_suite(config);
  const auto via_legacy = synthetic_suite(5, 99);
  ASSERT_EQ(via_config.size(), via_legacy.size());
  for (std::size_t i = 0; i < via_config.size(); ++i)
    EXPECT_EQ(via_config[i].source, via_legacy[i].source);
}

TEST(CorpusTest, SyntheticConfigPrefixStableUnderGrowth) {
  // Growing the corpus appends programs; the existing prefix is untouched
  // (each program derives from one rng split, independent of the total).
  SyntheticConfig small;
  small.programs = 3;
  SyntheticConfig big = small;
  big.programs = 10;
  const auto few = synthetic_suite(small);
  const auto many = synthetic_suite(big);
  for (std::size_t i = 0; i < few.size(); ++i)
    EXPECT_EQ(few[i].source, many[i].source);
}

TEST(CorpusTest, SyntheticConfigControlsMixSizeAndNoise) {
  // Pattern mix: dropping a family removes its labels but the program
  // still parses and runs.
  SyntheticConfig config;
  config.programs = 2;
  config.cold_kernels = false;      // drops the cold families (incl. the FN)
  config.scatter_kernels = false;   // drops the direct-scatter TN family
  config.indirect_kernels = false;  // drops the FP family
  config.shift_kernels = false;     // drops the optimism-only TP family
  config.min_filler = 2;            // and shrink the noise
  config.max_filler = 3;
  config.min_elems = 8;
  config.max_elems = 8;
  for (const CorpusProgram& p : synthetic_suite(config)) {
    EXPECT_EQ(p.source.find("ColdKernel"), std::string::npos);
    EXPECT_EQ(p.source.find("ScatterKernel"), std::string::npos);
    EXPECT_EQ(p.source.find("IndirectKernel"), std::string::npos);
    EXPECT_EQ(p.source.find("ShiftKernel"), std::string::npos);
    DiagnosticSink diags;
    auto program = lang::parse_and_check(p.source, diags);
    ASSERT_TRUE(program) << p.name << ": " << diags.to_string();
    analysis::Interpreter interp(*program);
    EXPECT_NO_THROW(interp.run_main()) << p.name;
    std::string error;
    const DetectionScore score = score_program(p, true, &error);
    EXPECT_TRUE(error.empty()) << error;
    EXPECT_EQ(score.false_negatives, 0);  // no cold family to miss
    EXPECT_EQ(score.false_positives, 0);  // no scatter family to claim
    EXPECT_EQ(score.true_positives, 3);   // map + reduction + pipeline
    EXPECT_EQ(score.true_negatives, 1);   // chain recurrence kept
  }
  // Noise and size knobs move LoC: a low-noise corpus is much smaller.
  SyntheticConfig noisy = config;
  noisy.min_filler = 30;
  noisy.max_filler = 30;
  EXPECT_GT(synthetic_suite(noisy)[0].loc(),
            synthetic_suite(config)[0].loc() + 50);
}

TEST(CorpusTest, SyntheticSuiteScalesPast26kLoc) {
  // The paper's §5 corpus totals 26,580 LoC; 110 blocks exceed that.
  auto suite = synthetic_suite(110, 20150207);
  std::size_t total = 0;
  for (const CorpusProgram& p : suite) total += p.loc();
  EXPECT_GE(total, 26'580u);
}

TEST(CorpusTest, ScoreMetricsArithmetic) {
  DetectionScore s;
  s.true_positives = 6;
  s.false_positives = 2;
  s.false_negatives = 3;
  EXPECT_NEAR(s.precision(), 0.75, 1e-9);
  EXPECT_NEAR(s.recall(), 2.0 / 3.0, 1e-9);
  EXPECT_NEAR(s.f1(), 2 * 0.75 * (2.0 / 3.0) / (0.75 + 2.0 / 3.0), 1e-9);
  DetectionScore empty;
  EXPECT_EQ(empty.precision(), 0.0);
  EXPECT_EQ(empty.f1(), 0.0);
}

TEST(CorpusTest, StaticModeScoresWorseThanOptimistic) {
  // The pessimistic baseline misses what optimism finds (paper's argument).
  auto suite = synthetic_suite(4, 11);
  DetectionScore opt, stat;
  for (const CorpusProgram& p : suite) {
    const DetectionScore o = score_program(p, true);
    const DetectionScore s = score_program(p, false);
    opt.true_positives += o.true_positives;
    opt.false_negatives += o.false_negatives;
    stat.true_positives += s.true_positives;
    stat.false_negatives += s.false_negatives;
  }
  EXPECT_GT(opt.recall(), stat.recall());
}

}  // namespace
}  // namespace patty::corpus
