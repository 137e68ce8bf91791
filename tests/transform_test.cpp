// Transformation-phase tests: the parallel plan executor must be
// observationally equivalent to sequential execution for every pattern and
// tuning configuration; codegen produces the figure-3 artifacts; generated
// unit tests pass on correct patterns; input selection covers branches.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "analysis/semantic_model.hpp"
#include "corpus/corpus.hpp"
#include "lang/printer.hpp"
#include "lang/sema.hpp"
#include "patterns/detector.hpp"
#include "race/explorer.hpp"
#include "transform/codegen.hpp"
#include "transform/plan.hpp"
#include "transform/testgen.hpp"
#include "tuning/model.hpp"

namespace patty::transform {
namespace {

const char* kAvi = R"(
class Image {
  int data;
  Image WithData(int d) { Image r = new Image(); r.data = d; return r; }
}
class Filter {
  int strength;
  Image Apply(Image img) { work(30); return img.WithData(img.data + strength); }
}
class Main {
  Filter crop; Filter histo; Filter oil;
  void init() {
    crop = new Filter(); crop.strength = 1;
    histo = new Filter(); histo.strength = 2;
    oil = new Filter(); oil.strength = 3;
  }
  void main() {
    list<Image> frames = new list<Image>();
    for (int k = 0; k < 20; k++) {
      Image img = new Image();
      img.data = k;
      push(frames, img);
    }
    list<Image> out = new list<Image>();
    foreach (Image i in frames) {
      Image c = crop.Apply(i);
      Image h = histo.Apply(c);
      Image o = oil.Apply(h);
      push(out, o);
    }
    int sum = 0;
    foreach (Image r in out) { sum = sum + r.data; }
    print(sum);
  }
}
)";

TEST(PlanTest, PipelinePlanMatchesSequential) {
  DiagnosticSink diags;
  auto program = lang::parse_and_check(kAvi, diags);
  ASSERT_TRUE(program) << diags.to_string();
  auto model = analysis::SemanticModel::build(*program);
  auto detection = patterns::detect_all(*model);

  analysis::Interpreter ref(*program);
  ref.run_main();
  const std::string expected = ref.output();

  ParallelPlanExecutor executor(*program, detection.candidates, nullptr);
  executor.run_main();
  EXPECT_EQ(executor.output(), expected);
  bool some_parallel = false;
  for (const PlanReport& r : executor.reports())
    if (r.ran_parallel) some_parallel = true;
  EXPECT_TRUE(some_parallel);
}

TEST(PlanTest, DataParallelPlanMatchesSequential) {
  const char* src = R"(
class Main {
  void main() {
    int[] src = new int[200];
    int[] dst = new int[200];
    for (int i = 0; i < 200; i++) { src[i] = i; }
    for (int i = 0; i < 200; i++) {
      dst[i] = src[i] * src[i] + work(2);
    }
    int check = dst[0] + dst[100] + dst[199];
    print(check);
  }
})";
  DiagnosticSink diags;
  auto program = lang::parse_and_check(src, diags);
  ASSERT_TRUE(program) << diags.to_string();
  auto model = analysis::SemanticModel::build(*program);
  auto detection = patterns::detect_all(*model);

  analysis::Interpreter ref(*program);
  ref.run_main();

  ParallelPlanExecutor executor(*program, detection.candidates, nullptr);
  executor.run_main();
  EXPECT_EQ(executor.output(), ref.output());
}

TEST(PlanTest, ReductionPlanMatchesSequential) {
  const char* src = R"(
class Main {
  void main() {
    int[] a = new int[500];
    for (int i = 0; i < 500; i++) { a[i] = i % 17; }
    int sum = 3;
    for (int i = 0; i < 500; i++) {
      sum = sum + a[i] * a[i];
    }
    print(sum);
  }
})";
  DiagnosticSink diags;
  auto program = lang::parse_and_check(src, diags);
  ASSERT_TRUE(program) << diags.to_string();
  auto model = analysis::SemanticModel::build(*program);
  auto detection = patterns::detect_all(*model);
  bool has_reduction = false;
  for (const auto& c : detection.candidates)
    if (c.is_reduction) has_reduction = true;
  ASSERT_TRUE(has_reduction);

  analysis::Interpreter ref(*program);
  ref.run_main();

  ParallelPlanExecutor executor(*program, detection.candidates, nullptr);
  executor.run_main();
  EXPECT_EQ(executor.output(), ref.output());
  bool reduction_parallel = false;
  for (const PlanReport& r : executor.reports())
    if (r.ran_parallel && r.note == "parallel reduction")
      reduction_parallel = true;
  EXPECT_TRUE(reduction_parallel);
}

TEST(PlanTest, MasterWorkerPlanMatchesSequential) {
  const char* src = R"(
class Job {
  int Run(int n) { return work(n) + n; }
}
class Main {
  Job j1; Job j2; Job j3;
  void init() { j1 = new Job(); j2 = new Job(); j3 = new Job(); }
  void main() {
    int a = j1.Run(50);
    int b = j2.Run(60);
    int c = j3.Run(70);
    print(a + b + c);
  }
})";
  DiagnosticSink diags;
  auto program = lang::parse_and_check(src, diags);
  ASSERT_TRUE(program) << diags.to_string();
  auto model = analysis::SemanticModel::build(*program);
  auto detection = patterns::detect_all(*model);
  bool has_mw = false;
  for (const auto& c : detection.candidates)
    if (c.kind == patterns::PatternKind::MasterWorker) has_mw = true;
  ASSERT_TRUE(has_mw);

  analysis::Interpreter ref(*program);
  ref.run_main();

  ParallelPlanExecutor executor(*program, detection.candidates, nullptr);
  executor.run_main();
  EXPECT_EQ(executor.output(), ref.output());
}

TEST(PlanTest, UnsafeScalarCarriedStateFallsBackToSequential) {
  // `carry` is outer-declared, read and written in the body: the plan must
  // refuse to parallelize and fall back (correctness first).
  const char* src = R"(
class Main {
  void main() {
    list<int> out = new list<int>();
    int[] a = new int[10];
    int carry = 0;
    foreach (int x in a) {
      int y = x + carry;
      carry = y + 1;
      push(out, y);
    }
    print(carry);
  }
})";
  DiagnosticSink diags;
  auto program = lang::parse_and_check(src, diags);
  ASSERT_TRUE(program) << diags.to_string();
  auto model = analysis::SemanticModel::build(*program);
  auto detection = patterns::detect_all(*model);

  analysis::Interpreter ref(*program);
  ref.run_main();

  ParallelPlanExecutor executor(*program, detection.candidates, nullptr);
  executor.run_main();
  EXPECT_EQ(executor.output(), ref.output());
  for (const PlanReport& r : executor.reports()) EXPECT_FALSE(r.ran_parallel);
}

TEST(PlanTest, SequentialTuningParameterForcesFallback) {
  DiagnosticSink diags;
  auto program = lang::parse_and_check(kAvi, diags);
  ASSERT_TRUE(program) << diags.to_string();
  auto model = analysis::SemanticModel::build(*program);
  auto detection = patterns::detect_all(*model);
  rt::TuningConfig config = default_tuning(detection.candidates);
  for (const auto& [name, p] : config.params()) {
    (void)p;
    if (name.find(".sequential") != std::string::npos) config.set(name, 1);
  }
  ParallelPlanExecutor executor(*program, detection.candidates, &config);
  executor.run_main();
  analysis::Interpreter ref(*program);
  ref.run_main();
  EXPECT_EQ(executor.output(), ref.output());
  for (const PlanReport& r : executor.reports()) {
    if (r.kind != patterns::PatternKind::MasterWorker) {
      EXPECT_FALSE(r.ran_parallel) << r.note;
    }
  }
}

TEST(PlanTest, WritebackOfEscapingLocal) {
  // `last` escapes the loop; the ordered write-back must make the final
  // value match sequential semantics.
  const char* src = R"(
class Main {
  void main() {
    int[] a = new int[50];
    for (int i = 0; i < 50; i++) { a[i] = i * 3; }
    int last = 0 - 1;
    for (int i = 0; i < 50; i++) {
      last = a[i] + work(1);
    }
    print(last);
  }
})";
  DiagnosticSink diags;
  auto program = lang::parse_and_check(src, diags);
  ASSERT_TRUE(program) << diags.to_string();
  auto model = analysis::SemanticModel::build(*program);
  auto detection = patterns::detect_all(*model);
  analysis::Interpreter ref(*program);
  ref.run_main();
  ParallelPlanExecutor executor(*program, detection.candidates, nullptr);
  executor.run_main();
  EXPECT_EQ(executor.output(), ref.output());
}

TEST(PlanTest, HandwrittenPredictedSpeedupsAreGolden) {
  // The design-time speedup of every handwritten candidate at 4 hardware
  // threads. How a prediction is computed may change; its value may not,
  // unless detection or the model formulas change on purpose.
  const std::map<std::string, std::vector<double>> golden = {
      {"avistream",
       {3.2470803585177932, 2.910493384031827, 3.7055250216951112}},
      {"raytracer",
       {3.7055250216951112, 3.8283582089552239, 3.7055250216951112,
        3.7055250216951112, 1.5512465373961217, 3.7055250216951112}},
      {"desktop_search", {3.7055250216951112}},
      {"matrix",
       {3.4972411149810956, 3.7055250216951112, 3.7055250216951112,
        3.7055250216951112}},
      {"histogram", {3.7055250216951112}},
  };
  for (const corpus::CorpusProgram* src : corpus::handwritten()) {
    DiagnosticSink diags;
    auto program = lang::parse_and_check(src->source, diags);
    ASSERT_TRUE(program) << src->name << ": " << diags.to_string();
    auto model = analysis::SemanticModel::build(*program);
    std::vector<patterns::Candidate> candidates =
        patterns::detect_all(*model).candidates;
    tuning::annotate_predicted_speedups(candidates, tuning::Hardware{4});
    const std::vector<double>& want = golden.at(src->name);
    ASSERT_EQ(candidates.size(), want.size()) << src->name;
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_DOUBLE_EQ(candidates[i].predicted_speedup, want[i])
          << src->name << " candidate " << i;
  }
}

// --- Codegen -----------------------------------------------------------------

TEST(CodegenTest, PipelineArtifactsHaveFigureThreeShape) {
  DiagnosticSink diags;
  auto program = lang::parse_and_check(kAvi, diags);
  ASSERT_TRUE(program) << diags.to_string();
  auto model = analysis::SemanticModel::build(*program);
  auto detection = patterns::detect_all(*model);
  const patterns::Candidate* pipe = nullptr;
  for (const auto& c : detection.candidates)
    if (c.kind == patterns::PatternKind::Pipeline) pipe = &c;
  ASSERT_NE(pipe, nullptr);

  TransformationArtifacts artifacts = make_artifacts(*program, *pipe);
  // 3b: annotated source.
  EXPECT_NE(artifacts.annotated_source.find("@tadl"), std::string::npos);
  // 3c: tuning configuration.
  EXPECT_NE(artifacts.tuning_file.find("param"), std::string::npos);
  EXPECT_NE(artifacts.tuning_file.find("replication"), std::string::npos);
  // 3d: parallel source instantiating the runtime library.
  EXPECT_NE(artifacts.parallel_source.find("new Pipeline"), std::string::npos);
  EXPECT_NE(artifacts.parallel_source.find("new Item"), std::string::npos);
  // Annotations were stripped again.
  EXPECT_EQ(lang::print_program(*program).find("@tadl"), std::string::npos);
}

// --- Generated unit tests ------------------------------------------------------

TEST(TestGenTest, GeneratedTestsCoverTuningKnobs) {
  DiagnosticSink diags;
  auto program = lang::parse_and_check(kAvi, diags);
  ASSERT_TRUE(program) << diags.to_string();
  auto model = analysis::SemanticModel::build(*program);
  auto detection = patterns::detect_all(*model);
  auto tests = generate_unit_tests(detection.candidates);
  ASSERT_GE(tests.size(), 4u);
  bool has_order_probe = false;
  for (const auto& t : tests)
    if (t.expects_possible_order_violation) has_order_probe = true;
  EXPECT_TRUE(has_order_probe);
}

TEST(TestGenTest, GeneratedTestsPassOnCorrectPattern) {
  DiagnosticSink diags;
  auto program = lang::parse_and_check(kAvi, diags);
  ASSERT_TRUE(program) << diags.to_string();
  auto model = analysis::SemanticModel::build(*program);
  auto detection = patterns::detect_all(*model);
  auto tests = generate_unit_tests(detection.candidates);
  for (const auto& t : tests) {
    if (t.expects_possible_order_violation) continue;  // probe, separate test
    TestOutcome outcome = run_unit_test(*program, t, 2);
    EXPECT_TRUE(outcome.passed) << t.name << ": " << outcome.detail;
  }
}

TEST(TestGenTest, OrderProbeExploresAndSerializesFailingSchedule) {
  DiagnosticSink diags;
  auto program = lang::parse_and_check(kAvi, diags);
  ASSERT_TRUE(program) << diags.to_string();
  auto model = analysis::SemanticModel::build(*program);
  auto detection = patterns::detect_all(*model);
  auto tests = generate_unit_tests(detection.candidates);

  bool probed = false;
  for (const auto& t : tests) {
    if (t.expects_possible_order_violation) {
      // Order preservation off + replication: the explorer must find the
      // violating interleaving and hand back a replayable schedule.
      const ExplorationOutcome outcome = explore_order_probe(t);
      EXPECT_TRUE(outcome.order_violation_possible) << t.name;
      EXPECT_FALSE(outcome.detail.empty());
      ASSERT_FALSE(outcome.failing_schedule.empty());
      // The textual schedule must parse and must have replayed standalone
      // to the identical violation (explore_order_probe verifies this).
      EXPECT_TRUE(
          race::Schedule::from_string(outcome.failing_schedule).has_value());
      EXPECT_TRUE(outcome.replay_verified) << t.name;
      probed = true;
    } else {
      // Order-preserving configurations must explore clean.
      const ExplorationOutcome outcome = explore_order_probe(t);
      EXPECT_FALSE(outcome.order_violation_possible) << t.name;
      EXPECT_TRUE(outcome.failing_schedule.empty());
    }
  }
  EXPECT_TRUE(probed);
}

TEST(TestGenTest, ReplayVerificationComparesFailureClassNotBytes) {
  // Pin for the replay_verified bug: the replay re-executes every worker,
  // so the violation can surface on a different item/slot pair than the
  // exploration's first failure. Byte-equality silently reported such
  // replays unverified; the comparison is on failure class (the violation
  // kind after the last ": ").
  EXPECT_TRUE(same_failure_class("item 3 emitted at slot 1: order violated",
                                 "item 0 emitted at slot 2: order violated"));
  EXPECT_TRUE(same_failure_class("order violated", "order violated"));
  EXPECT_FALSE(same_failure_class("item 3 emitted at slot 1: order violated",
                                  "item 3 emitted at slot 1: lost update"));
  // No separator: the whole message is the class.
  EXPECT_FALSE(same_failure_class("deadlock", "livelock"));
  EXPECT_TRUE(same_failure_class("deadlock", "deadlock"));
  // Same class, different site: distinct suffixes keep distinct sites
  // apart when callers embed the site in the kind segment.
  EXPECT_FALSE(same_failure_class("x: order violated at sink",
                                  "x: order violated at stage B"));
}

TEST(TestGenTest, InputSelectionCoversBranches) {
  // Variant 0 covers the small branch, variant 1 the big one, variant 2
  // adds nothing beyond variant 1.
  auto variant = [](int n) {
    return std::string(R"(
class Main {
  void main() {
    int n = )") +
           std::to_string(n) + R"(;
    if (n > 10) { print("big"); } else { print("small"); }
  }
})";
  };
  std::string error;
  auto chosen = select_covering_inputs({variant(3), variant(50), variant(60)},
                                       &error);
  EXPECT_TRUE(error.empty()) << error;
  ASSERT_EQ(chosen.size(), 2u);
  // Together the chosen variants cover both outcomes.
  std::set<std::size_t> set(chosen.begin(), chosen.end());
  EXPECT_TRUE(set.count(0));
  EXPECT_TRUE(set.count(1) || set.count(2));
}

TEST(TestGenTest, InputSelectionReportsBadVariant) {
  std::string error;
  auto chosen = select_covering_inputs({"not a program"}, &error);
  EXPECT_TRUE(chosen.empty());
  EXPECT_FALSE(error.empty());
}

}  // namespace
}  // namespace patty::transform
