// Auto-tuner tests: the linear tuner must find the optimum of small
// spaces, respect the evaluation budget, be deterministic, and never report
// a configuration it did not evaluate; behaviours every tuner owes (a full
// sweep crosses a ridge, a one-point space ends at once) run on both the
// linear and the model-guided tuner. The second half covers the cost-model
// layer (tuning/model.hpp): telemetry fitting, TADL composition,
// design-time speedup prediction, and the model-guided tuner's eval-count
// and quality contracts.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "observe/explain.hpp"
#include "patterns/candidate.hpp"
#include "tuning/model.hpp"
#include "tuning/tuner.hpp"

namespace patty::tuning {
namespace {

rt::TuningConfig make_space(std::int64_t a_max, std::int64_t b_max,
                            bool with_flag = true) {
  rt::TuningConfig config;
  rt::TuningParameter a;
  a.name = "a";
  a.min = 1;
  a.max = a_max;
  a.value = 1;
  config.define(a);
  rt::TuningParameter b;
  b.name = "b";
  b.min = 1;
  b.max = b_max;
  b.value = 1;
  config.define(b);
  if (with_flag) {
    rt::TuningParameter f;
    f.name = "flag";
    f.kind = rt::TuningKind::Bool;
    f.value = 0;
    config.define(f);
  }
  return config;
}

/// Convex bowl with optimum at a=5, b=3, flag=1.
double bowl(const rt::TuningConfig& c) {
  const double a = static_cast<double>(c.get_or("a", 1));
  const double b = static_cast<double>(c.get_or("b", 1));
  const double f = c.get_bool_or("flag", false) ? 0.0 : 4.0;
  return (a - 5) * (a - 5) + (b - 3) * (b - 3) + f;
}

/// The tuner contract on the paper's linear search; the model-guided
/// tuner's own contract is checked below.
class TunerSweep : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<Tuner> make() const { return make_linear_tuner(); }
};

TEST_P(TunerSweep, FindsOptimumOfConvexBowl) {
  auto tuner = make();
  TuningRun run = tuner->tune(make_space(8, 8), bowl, 200);
  EXPECT_EQ(run.best_score, 0.0) << tuner->name();
  EXPECT_EQ(run.best.get_or("a", 0), 5);
  EXPECT_EQ(run.best.get_or("b", 0), 3);
  EXPECT_TRUE(run.best.get_bool_or("flag", false));
}

TEST_P(TunerSweep, RespectsBudget) {
  auto tuner = make();
  TuningRun run = tuner->tune(make_space(64, 64), bowl, 25);
  EXPECT_LE(run.evaluations, 25u) << tuner->name();
  EXPECT_EQ(run.history.size(), run.evaluations);
}

TEST_P(TunerSweep, DeterministicUnderSameSeed) {
  auto t1 = make();
  auto t2 = make();
  TuningRun r1 = t1->tune(make_space(16, 16), bowl, 60);
  TuningRun r2 = t2->tune(make_space(16, 16), bowl, 60);
  EXPECT_EQ(r1.best_score, r2.best_score);
  EXPECT_EQ(r1.evaluations, r2.evaluations);
  ASSERT_EQ(r1.history.size(), r2.history.size());
  for (std::size_t i = 0; i < r1.history.size(); ++i) {
    EXPECT_EQ(r1.history[i].values, r2.history[i].values) << i;
    EXPECT_EQ(r1.history[i].score, r2.history[i].score) << i;
  }
}

TEST_P(TunerSweep, BestScoreIsMinOfHistory) {
  auto tuner = make();
  TuningRun run = tuner->tune(make_space(10, 10), bowl, 50);
  double min_seen = run.history.front().score;
  for (const Evaluation& e : run.history) min_seen = std::min(min_seen, e.score);
  EXPECT_EQ(run.best_score, min_seen);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, TunerSweep, ::testing::Values(0),
                         [](const ::testing::TestParamInfo<int>&) {
                           return std::string("linear");
                         });

/// Every tuner the repo keeps: behaviours a tuner owes whatever its search
/// strategy run on each (the model-guided tuner falls back to the linear
/// search on spaces without pattern knobs).
std::vector<std::unique_ptr<Tuner>> every_tuner() {
  std::vector<std::unique_ptr<Tuner>> tuners;
  tuners.push_back(make_linear_tuner());
  tuners.push_back(make_model_guided_tuner());
  return tuners;
}

TEST(LinearTunerTest, ConvergesFastOnSeparableFunction) {
  // Separable objective: linear search needs roughly sum of domain sizes.
  auto tuner = make_linear_tuner();
  TuningRun run = tuner->tune(make_space(8, 8), bowl, 1000);
  EXPECT_EQ(run.best_score, 0.0);
  EXPECT_LE(run.evaluations, 60u);
}

TEST(LinearTunerTest, SingleParameterSpace) {
  rt::TuningConfig config;
  rt::TuningParameter p;
  p.name = "x";
  p.min = 0;
  p.max = 9;
  config.define(p);
  auto tuner = make_linear_tuner();
  TuningRun run = tuner->tune(
      config,
      [](const rt::TuningConfig& c) {
        return std::fabs(static_cast<double>(c.get_or("x", 0)) - 7.0);
      },
      100);
  EXPECT_EQ(run.best.get_or("x", -1), 7);
}

TEST(TunerTest, FullSweepCrossesRidgeToGlobalMinimum) {
  // Two-basin function over one dimension: local min at 2 (score 1),
  // global at 8 (score 0), ridge between at 5. A search that only steps to
  // neighbours from the start stalls at 2; a full per-dimension sweep
  // reaches 8.
  rt::TuningConfig config;
  rt::TuningParameter p;
  p.name = "x";
  p.min = 0;
  p.max = 9;
  p.value = 2;
  config.define(p);
  auto score = [](const rt::TuningConfig& c) {
    const std::int64_t x = c.get_or("x", 0);
    const double table[] = {3, 2, 1, 2, 4, 6, 3, 1, 0, 2};
    return table[x];
  };
  for (const auto& tuner : every_tuner()) {
    TuningRun run = tuner->tune(config, score, 60);
    EXPECT_EQ(run.best_score, 0.0) << tuner->name();
    EXPECT_EQ(run.best.get_or("x", -1), 8) << tuner->name();
  }
}

TEST(TunerTest, OnePointSpaceEndsAfterOneEvaluation) {
  rt::TuningConfig config;
  rt::TuningParameter p;
  p.name = "only";
  p.min = 3;
  p.max = 3;
  config.define(p);
  for (const auto& tuner : every_tuner()) {
    TuningRun run = tuner->tune(
        config, [](const rt::TuningConfig&) { return 1.0; }, 50);
    EXPECT_EQ(run.evaluations, 1u) << tuner->name();
  }
}

TEST(TunerTest, HistoryRecordsNameSortedValues) {
  auto tuner = make_linear_tuner();
  TuningRun run = tuner->tune(make_space(3, 3, /*with_flag=*/false), bowl, 30);
  for (const Evaluation& e : run.history) ASSERT_EQ(e.values.size(), 2u);
}

// ---- Cost-model layer ------------------------------------------------------

/// The tuner-convergence bench's canonical pipeline knob space: stage
/// replications, pairwise fusion flags, and the sequential escape hatch.
rt::TuningConfig make_pipeline_space() {
  rt::TuningConfig config;
  auto add = [&config](const char* name, rt::TuningKind kind,
                       std::int64_t value, std::int64_t min, std::int64_t max) {
    rt::TuningParameter p;
    p.name = name;
    p.kind = kind;
    p.value = value;
    p.min = min;
    p.max = max;
    config.define(p);
  };
  add("stageA.replication", rt::TuningKind::Int, 1, 1, 4);
  add("stageB.replication", rt::TuningKind::Int, 1, 1, 4);
  add("fuseAB", rt::TuningKind::Bool, 0, 0, 1);
  add("fuseBC", rt::TuningKind::Bool, 0, 0, 1);
  add("sequential", rt::TuningKind::Bool, 0, 0, 1);
  return config;
}

/// Imbalanced A(10) -> B(40) -> C(10) pipeline, the ground truth the
/// model-guided tests measure against.
std::shared_ptr<const CostModel> truth_pipeline() {
  PipelineModelParams p;
  p.elements = 250.0;
  p.stages = {{"A", 10.0, true, nullptr},
              {"B", 40.0, true, nullptr},
              {"C", 10.0, true, nullptr}};
  p.transfer_us = 5.0;
  p.reorder_us = 2.0;
  return std::shared_ptr<const CostModel>(make_pipeline_model(std::move(p)));
}

/// The same pipeline as the fitter would plausibly see it: stage costs off
/// by ~10%, plumbing overestimated.
std::shared_ptr<const CostModel> misfit_pipeline() {
  PipelineModelParams p;
  p.elements = 250.0;
  p.stages = {{"A", 11.0, true, nullptr},
              {"B", 36.0, true, nullptr},
              {"C", 9.0, true, nullptr}};
  p.transfer_us = 6.0;
  p.reorder_us = 2.5;
  return std::shared_ptr<const CostModel>(make_pipeline_model(std::move(p)));
}

TEST(CostModelTest, PipelineFitRecoversStageServiceTimes) {
  observe::PipelineObservation obs;
  obs.pipeline = "fit";
  obs.elements = 250;
  obs.wall_ms = 12.0;
  obs.stages = {{"A", 1, 250, 2.5},    // 10us per item
                {"B", 1, 250, 10.0},   // 40us per item
                {"C", 1, 250, 2.5}};   // 10us per item
  const PipelineModelParams p = fit_pipeline(obs);
  ASSERT_EQ(p.stages.size(), 3u);
  EXPECT_NEAR(p.stages[0].service_us, 10.0, 1e-9);
  EXPECT_NEAR(p.stages[1].service_us, 40.0, 1e-9);
  EXPECT_NEAR(p.stages[2].service_us, 10.0, 1e-9);
  EXPECT_EQ(p.elements, 250.0);
  // The wall residual over the ideal bottleneck run (60 + 250*40 = 10060us
  // of 12000us) is attributed to per-item transfer across the 2 edges.
  EXPECT_NEAR(p.transfer_us, (12000.0 - 10060.0) / (250.0 * 2.0), 1e-6);
  EXPECT_NEAR(p.reorder_us, p.transfer_us / 2.0, 1e-9);
}

TEST(CostModelTest, NestedLoopComposesIntoPipelineStage) {
  // TADL nesting: a data-parallel loop inside stage B. The outer model's
  // prediction must respond to the INNER region's knobs.
  LoopModelParams inner;
  inner.knob_prefix = "inner.";
  inner.elements = 64.0;
  inner.iter_us = 10.0;
  PipelineModelParams outer;
  outer.elements = 100.0;
  outer.stages = {{"A", 5.0, true, nullptr},
                  {"B", 5.0, true,
                   std::shared_ptr<const CostModel>(
                       make_loop_model(std::move(inner)))},
                  {"C", 5.0, true, nullptr}};
  const std::unique_ptr<CostModel> model =
      make_pipeline_model(std::move(outer));

  rt::TuningConfig config;
  rt::TuningParameter threads;
  threads.name = "inner.threads";
  threads.value = 1;
  threads.min = 1;
  threads.max = 4;
  config.define(threads);
  const Hardware hw{4};
  const double one_thread = model->predict(config, hw);
  config.set("inner.threads", 4);
  const double four_threads = model->predict(config, hw);
  EXPECT_LT(four_threads, one_thread);
  // And the inner cost is genuinely inside the stage: strip the nesting
  // and the one-thread prediction must shrink.
  PipelineModelParams flat;
  flat.elements = 100.0;
  flat.stages = {{"A", 5.0, true, nullptr},
                 {"B", 5.0, true, nullptr},
                 {"C", 5.0, true, nullptr}};
  config.set("inner.threads", 1);
  EXPECT_LT(make_pipeline_model(std::move(flat))->predict(config, hw),
            one_thread);
}

TEST(CostModelTest, SumModelAddsIndependentRegions) {
  const Hardware hw{2};
  auto a = truth_pipeline();
  auto b = truth_pipeline();
  const rt::TuningConfig config = make_pipeline_space();
  const double one = a->predict(config, hw);
  const std::unique_ptr<CostModel> sum = make_sum_model({a, b});
  EXPECT_EQ(sum->family(), "sum");
  EXPECT_NEAR(sum->predict(config, hw), 2.0 * one, 1e-9);
}

TEST(CostModelTest, PinnedPredictionsOfANestedSpace) {
  // One knob space, predicted at several points. Stage B holds a loop
  // model under its own prefix; P.fuseAB fuses a pair; the space lacks
  // P.batch (and other knobs the models read), so their defaults apply;
  // Z.unread is read by no model. The expected costs pin the formulas:
  // changing how knobs are read must not move them. The second column is
  // the cost over the same space without P.stageB.replication, where that
  // knob reads as the model's default.
  LoopModelParams inner;
  inner.knob_prefix = "L.";
  inner.elements = 64.0;
  inner.iter_us = 3.0;
  PipelineModelParams outer;
  outer.knob_prefix = "P.";
  outer.elements = 100.0;
  outer.stages = {{"A", 10.0, true, nullptr},
                  {"B", 4.0, true,
                   std::shared_ptr<const CostModel>(make_loop_model(inner))},
                  {"C", 6.0, false, nullptr}};
  const std::unique_ptr<CostModel> model = make_pipeline_model(outer);

  rt::TuningConfig space;
  auto add = [&space](const char* name, rt::TuningKind kind,
                      std::int64_t value, std::int64_t min, std::int64_t max) {
    rt::TuningParameter p;
    p.name = name;
    p.kind = kind;
    p.value = value;
    p.min = min;
    p.max = max;
    space.define(p);
  };
  add("L.grain", rt::TuningKind::Int, 0, 0, 16);
  add("L.threads", rt::TuningKind::Int, 0, 0, 4);
  add("P.buffer", rt::TuningKind::Int, 16, 1, 64);
  add("P.fuseAB", rt::TuningKind::Bool, 0, 0, 1);
  add("P.sequential", rt::TuningKind::Bool, 0, 0, 1);
  add("P.stageA.replication", rt::TuningKind::Int, 1, 1, 4);
  add("P.stageB.order", rt::TuningKind::Bool, 1, 0, 1);
  add("P.stageB.replication", rt::TuningKind::Int, 1, 1, 4);
  add("Z.unread", rt::TuningKind::Int, 0, 0, 9);

  struct Point {
    const char* what;
    std::vector<std::pair<const char*, std::int64_t>> knobs;
    int threads;
    double expected;
    double without_b_replication;
  };
  const std::vector<Point> points = {
      {"defaults", {}, 4, 20529.0, 20529.0},
      {"sequential", {{"P.sequential", 1}}, 4, 21700.0, 21700.0},
      {"fused AB, replicated",
       {{"P.fuseAB", 1}, {"P.stageA.replication", 3}, {"P.stageB.replication", 2}},
       4, 7595.666666666667, 7595.666666666667},
      {"unordered replicated B, shallow buffer",
       {{"P.stageB.replication", 4}, {"P.stageB.order", 0}, {"P.buffer", 2}},
       4, 6229.0, 20616.5},
      {"inner loop knobs",
       {{"L.threads", 4}, {"L.grain", 8}, {"P.stageA.replication", 2}}, 4,
       17094.5, 17094.5},
      {"oversubscribed on 2 threads",
       {{"P.stageA.replication", 4}, {"P.stageB.replication", 4}, {"L.threads", 3}},
       2, 12787.5, 21937.5},
      {"unread knob", {{"Z.unread", 7}}, 4, 20529.0, 20529.0},
  };
  std::vector<std::string> names;
  for (const auto& [name, p] : space.params())
    if (name != "P.stageB.replication") names.push_back(name);
  const std::unique_ptr<BoundCost> lacking = model->bind(names);
  for (const Point& pt : points) {
    rt::TuningConfig config = space;
    for (const auto& [name, value] : pt.knobs) config.set(name, value);
    EXPECT_DOUBLE_EQ(model->predict(config, Hardware{pt.threads}),
                     pt.expected)
        << pt.what;
    std::vector<std::int64_t> values;
    for (const std::string& name : names)
      values.push_back(config.get_or(name, 0));
    EXPECT_DOUBLE_EQ(lacking->cost(values.data(), pt.threads),
                     pt.without_b_replication)
        << pt.what;
  }
}

/// Ground truth: the best score over the whole 128-point pipeline space.
double exhaustive_best(const MeasureFn& measure) {
  double best = std::numeric_limits<double>::infinity();
  rt::TuningConfig c = make_pipeline_space();
  for (std::int64_t ra = 1; ra <= 4; ++ra)
    for (std::int64_t rb = 1; rb <= 4; ++rb)
      for (std::int64_t fab = 0; fab <= 1; ++fab)
        for (std::int64_t fbc = 0; fbc <= 1; ++fbc)
          for (std::int64_t seq = 0; seq <= 1; ++seq) {
            c.set("stageA.replication", ra);
            c.set("stageB.replication", rb);
            c.set("fuseAB", fab);
            c.set("fuseBC", fbc);
            c.set("sequential", seq);
            best = std::min(best, measure(c));
          }
  return best;
}

TEST(ModelGuidedTunerTest, MatchesExhaustiveBestWithinFivePercent) {
  const Hardware hw{4};
  auto truth = truth_pipeline();
  auto measure = [&truth, &hw](const rt::TuningConfig& c) {
    return truth->predict(c, hw);
  };
  const double exhaustive = exhaustive_best(measure);

  // The tuner only gets the MIS-fit model: ranking has to survive ~10%
  // parameter error for the top-K validations to contain the real best.
  ModelGuidedOptions opts;
  opts.top_k = 5;
  opts.hardware = hw;
  opts.model = misfit_pipeline();
  auto tuner = make_model_guided_tuner(std::move(opts));
  TuningRun run = tuner->tune(make_pipeline_space(), measure, 64);
  EXPECT_TRUE(run.model.used);
  EXPECT_EQ(run.model.family, "injected");
  EXPECT_LE(run.evaluations, 1u + 5u);  // one probe + top-K validations
  EXPECT_LE(run.best_score, exhaustive * 1.05);
  EXPECT_GT(run.model.predicted_speedup, 1.0);
}

TEST(ModelGuidedTunerTest, ReachesOptimumPastLinearStall) {
  // bench/tuner_convergence's analytic surface: the linear sweep settles
  // in a local optimum 1.21x off the best, at any budget; the model ranks
  // the whole space and measures its way to the optimum.
  const Hardware hw{4};
  auto truth = truth_pipeline();
  auto measure = [&truth, &hw](const rt::TuningConfig& c) {
    return truth->predict(c, hw);
  };
  const double optimum = exhaustive_best(measure);
  EXPECT_NEAR(optimum, 4510.0, 0.5);
  for (std::size_t budget : {16u, 24u, 64u}) {
    const TuningRun linear =
        make_linear_tuner()->tune(make_pipeline_space(), measure, budget);
    EXPECT_EQ(linear.evaluations, 16u) << budget;
    EXPECT_NEAR(linear.best_score, 5438.0, 1.0) << budget;
    EXPECT_GT(linear.best_score, optimum * 1.2) << budget;
  }
  ModelGuidedOptions opts;
  opts.top_k = 3;
  opts.hardware = hw;
  opts.model = misfit_pipeline();
  const TuningRun guided = make_model_guided_tuner(std::move(opts))
                               ->tune(make_pipeline_space(), measure, 24);
  EXPECT_EQ(guided.best_score, optimum);
  EXPECT_EQ(guided.evaluations, 4u);
}

TEST(ModelGuidedTunerTest, DeterministicAcrossRuns) {
  const Hardware hw{4};
  auto truth = truth_pipeline();
  auto measure = [&truth, &hw](const rt::TuningConfig& c) {
    return truth->predict(c, hw);
  };
  auto make = [&hw] {
    ModelGuidedOptions opts;
    opts.hardware = hw;
    opts.model = misfit_pipeline();
    return make_model_guided_tuner(std::move(opts));
  };
  TuningRun r1 = make()->tune(make_pipeline_space(), measure, 64);
  TuningRun r2 = make()->tune(make_pipeline_space(), measure, 64);
  EXPECT_EQ(r1.best_score, r2.best_score);
  ASSERT_EQ(r1.history.size(), r2.history.size());
  for (std::size_t i = 0; i < r1.history.size(); ++i) {
    EXPECT_EQ(r1.history[i].values, r2.history[i].values) << i;
    EXPECT_EQ(r1.history[i].score, r2.history[i].score) << i;
  }
}

TEST(ModelGuidedTunerTest, FallsBackToLinearOnGenericSpace) {
  // No pattern knobs to classify -> the tuner must degrade to the linear
  // search and still satisfy the basic tuner contract.
  auto tuner = make_model_guided_tuner();
  TuningRun run = tuner->tune(make_space(8, 8), bowl, 200);
  EXPECT_FALSE(run.model.used);
  EXPECT_EQ(run.model.family, "fallback-linear");
  EXPECT_EQ(run.best_score, 0.0);
  EXPECT_EQ(run.best.get_or("a", 0), 5);
}

TEST(ModelGuidedTunerTest, FallsBackWhenProbePublishesNoTelemetry) {
  // Pipeline-shaped knobs but a measure function that never runs a real
  // pipeline: the probe yields no observation, so no model can be fit.
  auto tuner = make_model_guided_tuner();
  observe::clear_pipelines();
  TuningRun run = tuner->tune(
      make_pipeline_space(), [](const rt::TuningConfig&) { return 1.0; }, 40);
  EXPECT_FALSE(run.model.used);
  EXPECT_EQ(run.model.family, "fallback-linear");
}

TEST(ModelGuidedTunerTest, ExplainModelReportsFitAndValidations) {
  const Hardware hw{4};
  auto truth = truth_pipeline();
  ModelGuidedOptions opts;
  opts.hardware = hw;
  opts.model = misfit_pipeline();
  auto tuner = make_model_guided_tuner(std::move(opts));
  TuningRun run = tuner->tune(
      make_pipeline_space(),
      [&truth, &hw](const rt::TuningConfig& c) { return truth->predict(c, hw); },
      64);
  const std::string report = explain_model(run);
  EXPECT_NE(report.find("model-guided tuning report"), std::string::npos);
  EXPECT_NE(report.find("validation"), std::string::npos);
  EXPECT_NE(report.find("predicted"), std::string::npos);
  // The fallback path renders too (no model, says so).
  TuningRun fallback = make_model_guided_tuner()->tune(make_space(4, 4), bowl, 50);
  EXPECT_NE(explain_model(fallback).find("no model used"), std::string::npos);
}

TEST(DesignTimePredictionTest, ImbalancedPipelineCandidatePredictsSpeedup) {
  patterns::Candidate cand;
  cand.kind = patterns::PatternKind::Pipeline;
  cand.stages = {{"A", {}, true, false, 0.2},
                 {"B", {}, true, false, 0.6},
                 {"C", {}, false, true, 0.2}};  // IO stage: never replicated
  cand.sections = {{0}, {1}, {2}};
  const rt::TuningConfig space = make_pipeline_space();
  for (const auto& [name, param] : space.params())
    cand.tuning.push_back(param);
  const SpeedupPrediction pred = predict_candidate_speedup(cand, Hardware{4});
  EXPECT_GT(pred.speedup, 1.5);
  // The predicted best must be genuinely parallel: not the sequential
  // escape hatch, and some stage replicated.
  EXPECT_FALSE(pred.best.get_bool_or("sequential", true));
  EXPECT_GT(std::max(pred.best.get_or("stageA.replication", 1),
                     pred.best.get_or("stageB.replication", 1)),
            1);
  // C prints, so a group it is fused into runs at replication 1: the
  // predicted best never fuses it into a replicated group.
  if (pred.best.get_bool_or("fuseBC", false)) {
    EXPECT_EQ(pred.best.get_or("stageB.replication", 1), 1);
    if (pred.best.get_bool_or("fuseAB", false)) {
      EXPECT_EQ(pred.best.get_or("stageA.replication", 1), 1);
    }
  }
  EXPECT_GT(pred.sequential_cost, 0.0);
  EXPECT_FALSE(pred.summary.empty());
}

TEST(DesignTimePredictionTest, AnnotateFillsEveryCandidate) {
  std::vector<patterns::Candidate> cands(2);
  cands[0].kind = patterns::PatternKind::Pipeline;
  cands[0].stages = {{"A", {}, true, false, 0.3},
                     {"B", {}, true, false, 0.7}};
  cands[0].sections = {{0}, {1}};
  const rt::TuningConfig space = make_pipeline_space();
  for (const auto& [name, param] : space.params())
    cands[0].tuning.push_back(param);
  cands[1].kind = patterns::PatternKind::DataParallelLoop;
  rt::TuningParameter threads;
  threads.name = "threads";
  threads.value = 0;
  threads.min = 0;
  threads.max = 4;
  cands[1].tuning.push_back(threads);
  annotate_predicted_speedups(cands, Hardware{4});
  EXPECT_GT(cands[0].predicted_speedup, 1.0);
  EXPECT_GE(cands[1].predicted_speedup, 1.0);
}

TEST(DesignTimePredictionTest, ProfiledLeavesReplaceNominalOnes) {
  patterns::Candidate cand;
  cand.kind = patterns::PatternKind::DataParallelLoop;
  for (const char* name : {"parfor@1.threads", "parfor@1.grain",
                           "parfor@1.sequential"}) {
    rt::TuningParameter p;
    p.name = name;
    p.min = 0;
    p.max = std::string(name).find("sequential") != std::string::npos ? 1 : 4;
    cand.tuning.push_back(p);
  }
  const Hardware hw{4};
  const SpeedupPrediction nominal = predict_candidate_speedup(cand, hw);
  EXPECT_EQ(nominal.leaves, "nominal 256 elements x 100 us");
  EXPECT_GT(nominal.default_speedup, 3.0);

  // 300 iterations of 3 cost units: fork/join outweighs the work, and the
  // prediction at the default knobs says so (no clamp at 1.0); the best
  // tuned point is the sequential escape hatch.
  cand.trips_per_entry = 300.0;
  cand.cost_per_iteration = 3.0;
  const SpeedupPrediction fine = predict_candidate_speedup(cand, hw);
  EXPECT_EQ(fine.leaves, "300 elements x 0.12 us");
  EXPECT_LT(fine.default_speedup, 0.5);
  EXPECT_DOUBLE_EQ(fine.speedup, 1.0);
  EXPECT_EQ(fine.best.get_or("parfor@1.sequential", 0), 1);
}

}  // namespace
}  // namespace patty::tuning
