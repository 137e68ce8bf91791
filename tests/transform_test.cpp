// Transformation-phase tests: the parallel plan executor must be
// observationally equivalent to sequential execution for every pattern and
// tuning configuration; codegen produces the figure-3 artifacts; generated
// unit tests pass on correct patterns; input selection covers branches.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "analysis/semantic_model.hpp"
#include "corpus/corpus.hpp"
#include "lang/printer.hpp"
#include "lang/sema.hpp"
#include "observe/explain.hpp"
#include "observe/trace.hpp"
#include "patterns/region_plan.hpp"
#include "runtime/thread_pool.hpp"
#include "patterns/detector.hpp"
#include "race/explorer.hpp"
#include "transform/certify.hpp"
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

  const rt::TuningConfig config = default_tuning(detection.candidates);
  ParallelPlanExecutor executor(*program, detection.candidates, &config);
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

  const rt::TuningConfig config = default_tuning(detection.candidates);
  ParallelPlanExecutor executor(*program, detection.candidates, &config);
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

  const rt::TuningConfig config = default_tuning(detection.candidates);
  ParallelPlanExecutor executor(*program, detection.candidates, &config);
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

  const rt::TuningConfig config = default_tuning(detection.candidates);
  ParallelPlanExecutor executor(*program, detection.candidates, &config);
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

  const rt::TuningConfig config = default_tuning(detection.candidates);
  ParallelPlanExecutor executor(*program, detection.candidates, &config);
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
  const rt::TuningConfig config = default_tuning(detection.candidates);
  ParallelPlanExecutor executor(*program, detection.candidates, &config);
  executor.run_main();
  EXPECT_EQ(executor.output(), ref.output());
}

TEST(PlanTest, HandwrittenPredictedSpeedupsAreGolden) {
  // The design-time speedups of every handwritten candidate at 4 hardware
  // threads: {tuned best, at default knobs}.
  // The second is what the executor's gate reads. How a prediction is
  // computed may change; its value may not, unless detection, the
  // profile's leaves or the model formulas change on purpose.
  const std::map<std::string, std::vector<std::pair<double, double>>> golden =
      {
          {"avistream",
           {{1, 0.55261129686001176},
            {1, 0.30383819811537577},
            {1, 0.16340531690964372}}},
          {"raytracer",
           {{1.996661033440877, 1.996661033440877},
            {1, 0.46473859510121629},
            {1, 0.2385964912280702},
            {1, 0.18945927446954139},
            {1, 0.283638068448195},
            {3.7055250216951112, 3.5862262038073909}}},
          {"desktop_search", {{1, 0.45027039736656471}}},
          {"matrix",
           {{1.6314416177429876, 1.5695010982114843},
            {1, 0.20526567735758736},
            {1, 0.20319752449716347},
            {1, 0.16775201875488407}}},
          {"histogram", {{1, 0.21154227540159981}}},
      };
  const tuning::Hardware hw{4};
  for (const corpus::CorpusProgram* src : corpus::handwritten()) {
    DiagnosticSink diags;
    auto program = lang::parse_and_check(src->source, diags);
    ASSERT_TRUE(program) << src->name << ": " << diags.to_string();
    auto model = analysis::SemanticModel::build(*program);
    std::vector<patterns::Candidate> candidates =
        patterns::detect_all(*model).candidates;
    const std::vector<tuning::SpeedupPrediction> predictions =
        tuning::predict_speedups(candidates, hw);
    tuning::annotate_predicted_speedups(candidates, hw);
    const auto& want = golden.at(src->name);
    ASSERT_EQ(candidates.size(), want.size()) << src->name;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_DOUBLE_EQ(candidates[i].predicted_speedup, want[i].first)
          << src->name << " candidate " << i;
      EXPECT_DOUBLE_EQ(predictions[i].default_speedup, want[i].second)
          << src->name << " candidate " << i;
    }
  }
}

// --- The prediction gate ------------------------------------------------------

/// A program analysed end to end, with its sequential output.
struct Gated {
  std::unique_ptr<lang::Program> program;
  std::vector<patterns::Candidate> candidates;
  std::string expected;
};

Gated analyse(const char* src) {
  Gated g;
  DiagnosticSink diags;
  g.program = lang::parse_and_check(src, diags);
  EXPECT_TRUE(g.program) << diags.to_string();
  if (!g.program) return g;
  auto model = analysis::SemanticModel::build(*g.program);
  g.candidates = patterns::detect_all(*model).candidates;
  analysis::Interpreter ref(*g.program);
  ref.run_main();
  g.expected = ref.output();
  return g;
}

/// The prediction for the candidate anchored at `line` on `hw`.
tuning::SpeedupPrediction prediction_at(const Gated& g, std::uint32_t line,
                                        tuning::Hardware hw) {
  const std::vector<tuning::SpeedupPrediction> predictions =
      tuning::predict_speedups(g.candidates, hw);
  for (std::size_t i = 0; i < g.candidates.size(); ++i)
    if (g.candidates[i].anchor->range.begin.line == line)
      return predictions[i];
  ADD_FAILURE() << "no candidate at line " << line;
  return {};
}

/// Speedup at default knobs for the candidate anchored at `line`, at 4
/// threads.
double pinned_default_speedup(const Gated& g, std::uint32_t line) {
  return prediction_at(g, line, tuning::Hardware{4}).default_speedup;
}

/// On one hardware thread the gate runs every untuned region sequentially,
/// so a test of a region the gate leaves parallel stops before that check.
bool one_hardware_thread() { return rt::hardware_threads() < 2; }

/// The executor's report for the region anchored at `line`.
PlanReport report_at(const Gated& g, const ParallelPlanExecutor& executor,
                     std::uint32_t line) {
  for (const PlanReport& r : executor.reports())
    for (const patterns::Candidate& c : g.candidates)
      if (c.anchor->id == r.loop_stmt_id && c.anchor->range.begin.line == line)
        return r;
  ADD_FAILURE() << "no report for line " << line;
  return {};
}

// A short stream of one-statement iterations: whatever the interpreter's
// speed (a sanitizer build runs it many times slower), fork/join outweighs
// the work.
const char* kFineLoop = R"(class Main {
  void main() {
    int[] src = new int[40];
    int[] dst = new int[40];
    for (int i = 0; i < 40; i++) { src[i] = i; }
    for (int i = 0; i < 40; i++) {
      dst[i] = src[i] * 3 + i;
    }
    print(dst[0] + dst[20] + dst[39]);
  }
})";

TEST(PlanGateTest, FineGrainedLoopRunsSequentiallyWithItsNote) {
  const Gated g = analyse(kFineLoop);
  ASSERT_TRUE(g.program);
  EXPECT_LT(pinned_default_speedup(g, 6), 0.5);
  ParallelPlanExecutor executor(*g.program, g.candidates);
  executor.run_main();
  EXPECT_EQ(executor.output(), g.expected);
  const PlanReport r = report_at(g, executor, 6);
  EXPECT_FALSE(r.ran_parallel);
  EXPECT_NE(r.note.find("x at default knobs: 40 elements x "),
            std::string::npos)
      << r.note;
  if (one_hardware_thread()) GTEST_SKIP() << "predicted 1.00x on one thread";
  EXPECT_EQ(r.note.rfind("predicted 0.", 0), 0u) << r.note;
}

TEST(PlanGateTest, FineGrainedPipelineRunsSequentiallyWithItsNote) {
  const Gated g = analyse(R"(class Main {
  void main() {
    int[] src = new int[20];
    for (int i = 0; i < 20; i++) { src[i] = i; }
    list<int> out = new list<int>();
    foreach (int v in src) {
      int cooked = v * 3;
      push(out, cooked);
    }
    print(len(out) + out[0] + out[19]);
  }
})");
  ASSERT_TRUE(g.program);
  EXPECT_LT(pinned_default_speedup(g, 6), 0.5);
  ParallelPlanExecutor executor(*g.program, g.candidates);
  executor.run_main();
  EXPECT_EQ(executor.output(), g.expected);
  const PlanReport r = report_at(g, executor, 6);
  EXPECT_EQ(r.kind, patterns::PatternKind::Pipeline);
  EXPECT_FALSE(r.ran_parallel);
  EXPECT_NE(r.note.find("x at default knobs: 20 elements x "),
            std::string::npos)
      << r.note;
}

TEST(PlanGateTest, CoarseLoopStaysParallel) {
  const Gated g = analyse(R"(class Main {
  void main() {
    int[] dst = new int[64];
    for (int i = 0; i < 64; i++) {
      dst[i] = i + work(1000);
    }
    print(dst[0] + dst[63]);
  }
})");
  ASSERT_TRUE(g.program);
  EXPECT_GT(pinned_default_speedup(g, 4), 2.0);
  ParallelPlanExecutor executor(*g.program, g.candidates);
  executor.run_main();
  EXPECT_EQ(executor.output(), g.expected);
  if (one_hardware_thread()) GTEST_SKIP() << "every region gated";
  const PlanReport r = report_at(g, executor, 4);
  EXPECT_TRUE(r.ran_parallel) << r.note;
  EXPECT_EQ(r.elements, 64u);
}

TEST(PlanGateTest, NestedFineRegionIsGatedInsideParallelOuter) {
  const Gated g = analyse(R"(class Main {
  void main() {
    int[] dst = new int[32];
    for (int i = 0; i < 32; i++) {
      int[] row = new int[4];
      for (int j = 0; j < 4; j++) { row[j] = i + j; }
      dst[i] = row[0] + row[3] + work(1000);
    }
    print(dst[0] + dst[31]);
  }
})");
  ASSERT_TRUE(g.program);
  EXPECT_GT(pinned_default_speedup(g, 4), 2.0);
  EXPECT_LT(pinned_default_speedup(g, 6), 0.5);
  ParallelPlanExecutor executor(*g.program, g.candidates);
  executor.run_main();
  EXPECT_EQ(executor.output(), g.expected);
  if (one_hardware_thread()) GTEST_SKIP() << "every region gated";
  EXPECT_TRUE(report_at(g, executor, 4).ran_parallel);
  const PlanReport inner = report_at(g, executor, 6);
  EXPECT_FALSE(inner.ran_parallel);
  EXPECT_EQ(inner.runs, 32u);  // entered once per outer element
  EXPECT_NE(inner.note.find("x at default knobs: 4 elements x "),
            std::string::npos)
      << inner.note;
}

TEST(PlanGateTest, GatedMasterWorkerRunsEveryTaskInOrder) {
  // The interpreter alone would run the anchor and skip the absorbed
  // tasks, so a gated region must run them all itself.
  const Gated g = analyse(R"(class Job {
  int Run(int n) { return work(n) + n; }
}
class Main {
  Job j1; Job j2; Job j3;
  void init() { j1 = new Job(); j2 = new Job(); j3 = new Job(); }
  void main() {
    int a = j1.Run(5);
    int b = j2.Run(6);
    int c = j3.Run(7);
    print(a + b * 10 + c * 100);
  }
})");
  ASSERT_TRUE(g.program);
  EXPECT_LT(pinned_default_speedup(g, 8), 0.5);
  ParallelPlanExecutor executor(*g.program, g.candidates);
  executor.run_main();
  EXPECT_EQ(executor.output(), g.expected);
  const PlanReport r = report_at(g, executor, 8);
  EXPECT_EQ(r.kind, patterns::PatternKind::MasterWorker);
  EXPECT_FALSE(r.ran_parallel);
  EXPECT_NE(r.note.find("x at default knobs: 3 tasks x "), std::string::npos)
      << r.note;
}

TEST(PlanGateTest, OneHardwareThreadGatesEveryRegion) {
  // On one thread the loop and master/worker models price the parallel run
  // exactly as the sequential one, so no region is predicted below 1.0x;
  // the gate runs them sequentially all the same. A coarse loop and a
  // coarse master/worker region, both parallel on 4 threads.
  const Gated g = analyse(R"(class Job {
  int Run(int n) { return work(n) + n; }
}
class Main {
  Job j1; Job j2; Job j3;
  void init() { j1 = new Job(); j2 = new Job(); j3 = new Job(); }
  void main() {
    int[] dst = new int[64];
    for (int i = 0; i < 64; i++) {
      dst[i] = i + work(1000);
    }
    int a = j1.Run(2000);
    int b = j2.Run(2000);
    int c = j3.Run(2000);
    print(dst[63] + a + b + c);
  }
})");
  ASSERT_TRUE(g.program);
  for (std::uint32_t line : {9u, 12u}) {
    const tuning::SpeedupPrediction four =
        prediction_at(g, line, tuning::Hardware{4});
    EXPECT_GT(four.default_speedup, 1.2) << line;
    EXPECT_EQ(gate_note(four, 4), "") << line;
    const tuning::SpeedupPrediction one =
        prediction_at(g, line, tuning::Hardware{1});
    EXPECT_EQ(one.default_speedup, 1.0) << line;
    EXPECT_EQ(gate_note(one, 1),
              "predicted 1.00x at default knobs: " + one.leaves +
                  " (one hardware thread)")
        << line;
  }
  EXPECT_EQ(prediction_at(g, 9, tuning::Hardware{1}).leaves,
            "64 elements x 40 us");
  // The executor applies the same verdict on this host.
  ParallelPlanExecutor executor(*g.program, g.candidates);
  executor.run_main();
  EXPECT_EQ(executor.output(), g.expected);
  for (std::uint32_t line : {9u, 12u}) {
    const PlanReport r = report_at(g, executor, line);
    const std::string note =
        gate_note(prediction_at(g, line, tuning::Hardware{}),
                  rt::hardware_threads());
    EXPECT_EQ(r.ran_parallel, note.empty()) << line << ": " << r.note;
    if (!note.empty()) {
      EXPECT_EQ(r.note, note) << line;
    }
  }
}

TEST(PlanGateTest, ExplicitTuningOverridesTheGate) {
  const Gated g = analyse(kFineLoop);
  ASSERT_TRUE(g.program);
  const rt::TuningConfig config = default_tuning(g.candidates);
  ParallelPlanExecutor executor(*g.program, g.candidates, &config);
  executor.run_main();
  EXPECT_EQ(executor.output(), g.expected);
  const PlanReport r = report_at(g, executor, 6);
  EXPECT_TRUE(r.ran_parallel) << r.note;
  EXPECT_EQ(r.elements, 40u);
}

TEST(LoopPlanTest, SyntacticLocalsEqualEffectAnalysisLocals) {
  // The executor reads a loop's local-slot reads and writes from the
  // syntax. That equals the effect analysis's Local subset because method
  // summaries carry no locals. Check it on every statement of every
  // method, which covers each loop candidate's body, step and loop, and
  // local writes that no loop body makes (a target never read).
  std::vector<corpus::CorpusProgram> programs =
      corpus::synthetic_suite(110, 20150207);
  for (const corpus::CorpusProgram* p : corpus::handwritten())
    programs.push_back(*p);
  // The corpora always read a local they assign; this loop does not.
  programs.push_back({"escaping-local", R"(class Main {
  void main() {
    int[] a = new int[8];
    int last = 0;
    for (int i = 0; i < 8; i++) { last = a[i] * 2; }
    print(last);
  }
})", {}});
  std::size_t checked = 0;
  for (const corpus::CorpusProgram& p : programs) {
    DiagnosticSink diags;
    auto program = lang::parse_and_check(p.source, diags);
    ASSERT_TRUE(program) << p.name << ": " << diags.to_string();
    auto model = analysis::SemanticModel::build(*program);
    std::vector<const lang::Stmt*> stmts;
    for (const auto& cls : program->classes)
      for (const auto& m : cls->methods)
        lang::for_each_stmt(*m->body,
                            [&](const lang::Stmt& st) { stmts.push_back(&st); });
    for (const lang::Stmt* st : stmts) {
      std::set<int> reads, writes;
      analysis::local_slot_effects(*st, &reads, &writes);
      std::set<int> want_reads, want_writes;
      const analysis::EffectSet es = model->effects().stmt_effects(*st);
      for (const analysis::AbsLoc& l : es.reads)
        if (l.kind == analysis::AbsLoc::Kind::Local) want_reads.insert(l.slot);
      for (const analysis::AbsLoc& l : es.writes)
        if (l.kind == analysis::AbsLoc::Kind::Local) want_writes.insert(l.slot);
      EXPECT_EQ(reads, want_reads) << p.name << " stmt " << st->id;
      EXPECT_EQ(writes, want_writes) << p.name << " stmt " << st->id;
      ++checked;
    }
  }
  EXPECT_GT(checked, 10000u);
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

TEST(CodegenTest, AvistreamPipelineSourceIsGolden) {
  // Figure 3d for avistream's pipeline@38: an Item per stage member, the
  // section as a MasterWorker, and a replicable line for D alone. A, B and
  // C run once per element inside the section.
  const char* golden = R"(// generated by patty: (A+ || B+ || C+) => D+ => E
list<Image> Process(list<Image> aviIn) {
  Item pA = new Item(Image c = cropFilter.Apply(i););
  Item pB = new Item(Image h = histogramFilter.Apply(i););
  Item pC = new Item(Image o = oilFilter.Apply(i););
  Item pD = new Item(Image r = conv.Apply(c, h, o););
  Item pE = new Item(push(aviOut, r););
  MasterWorker mw0 = new MasterWorker(pA, pB, pC);
  pipeline.Item(pD).replicable = true;
  Pipeline pipeline = new Pipeline(mw0, pD, pE);
  pipeline.Input = aviIn;
  pipeline.LoadTuning("patty.tuning");
  // tuning: replication, order, fusion, sequential, buffer, batch
  try { pipeline.Run(); }
  catch (Exception e) {
    // fault tolerance: a stage fault cancels the region; degrade
    // to the SequentialExecution tuning parameter and replay
    pipeline.Tuning.Set("sequential", 1);
    pipeline.Run();
  }
}
)";
  const Gated g = analyse(corpus::avistream().source.c_str());
  ASSERT_TRUE(g.program);
  const patterns::Candidate* pipe = nullptr;
  for (const patterns::Candidate& c : g.candidates)
    if (c.location() == "38:5-44:6") pipe = &c;
  ASSERT_NE(pipe, nullptr);
  EXPECT_EQ(generate_parallel_source(*pipe), golden);
}

// --- Region plans --------------------------------------------------------------

/// Every knob of `config` whose name after its candidate's prefix starts
/// with `tail_start` and ends with `suffix`, set to `value`.
void set_knobs(rt::TuningConfig* config, const std::string& tail_start,
               const std::string& suffix, std::int64_t value) {
  for (const auto& [name, p] : config->params()) {
    (void)p;
    const std::string tail = name.substr(patterns::knob_prefix(name).size());
    if (tail.rfind(tail_start, 0) == 0 && tail.size() >= suffix.size() &&
        tail.compare(tail.size() - suffix.size(), suffix.size(), suffix) == 0)
      config->set(name, value);
  }
}

/// The three tunings every reader is checked at: the defaults, every
/// replication knob at 4, and that with every fuse flag on.
std::vector<rt::TuningConfig> agreement_tunings(
    const std::vector<patterns::Candidate>& candidates) {
  std::vector<rt::TuningConfig> out(3, default_tuning(candidates));
  set_knobs(&out[1], "stage", ".replication", 4);
  set_knobs(&out[2], "stage", ".replication", 4);
  set_knobs(&out[2], "fuse", "", 1);
  return out;
}

/// The Items codegen prints for a plan: the text of each "Item" line.
std::vector<std::string> plan_items(const patterns::RegionPlan& plan) {
  std::vector<std::string> items;
  for (const patterns::PlanStage& stage : plan.stages) {
    for (std::size_t k = 0; k < stage.members.size(); ++k) {
      const patterns::PlanMember& m = stage.members[k];
      std::string text;
      for (const lang::Stmt* st : m.stmts) {
        std::string line = lang::print_stmt(*st, 0);
        std::replace(line.begin(), line.end(), '\n', ' ');
        while (!line.empty() && line.back() == ' ') line.pop_back();
        text += (text.empty() ? "" : " ") + line;
      }
      const std::string name =
          plan.candidate->kind == patterns::PatternKind::MasterWorker
              ? "t" + std::to_string(k)
              : "p" + m.label;
      items.push_back("  Item " + name + " = new Item(" + text + ");");
    }
  }
  return items;
}

/// The "Item" lines of a generated source, in order.
std::vector<std::string> source_items(const std::string& source) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (start < source.size()) {
    std::size_t end = source.find('\n', start);
    if (end == std::string::npos) end = source.size();
    const std::string line = source.substr(start, end - start);
    if (line.rfind("  Item ", 0) == 0) items.push_back(line);
    start = end + 1;
  }
  return items;
}

/// Runs one pipeline candidate alone under the executor, as testgen does,
/// with telemetry on, and checks every published run against the plan's
/// resolved stages. Returns whether the region ran in parallel.
bool published_stages_follow_plan(const lang::Program& program,
                                  const patterns::RegionPlan& plan,
                                  const rt::TuningConfig& config,
                                  const std::string& where) {
  const bool was = observe::enabled();
  observe::set_enabled(true);
  observe::clear_pipelines();
  ParallelPlanExecutor executor(program, {*plan.candidate}, &config);
  executor.run_main();
  observe::set_enabled(was);
  const std::vector<observe::PipelineObservation> published =
      observe::recent_pipelines();
  const std::vector<PlanReport> reports = executor.reports();
  const bool ran = !reports.empty() && reports.front().ran_parallel;
  EXPECT_EQ(ran, !published.empty()) << where;
  if (plan.sequential()) {
    EXPECT_TRUE(published.empty()) << where;
  }
  for (const observe::PipelineObservation& obs : published) {
    EXPECT_FALSE(obs.sequential) << where;
    EXPECT_EQ(obs.stages.size(), plan.resolved.size()) << where;
    for (std::size_t s = 0;
         s < std::min(obs.stages.size(), plan.resolved.size()); ++s) {
      EXPECT_EQ(obs.stages[s].name, plan.resolved[s].label) << where;
      EXPECT_EQ(obs.stages[s].replication, plan.resolved[s].replication)
          << where;
    }
  }
  return ran;
}

TEST(RegionPlanTest, EveryReaderFollowsThePlan) {
  std::vector<corpus::CorpusProgram> programs =
      corpus::synthetic_suite(20, 20150207);
  for (const corpus::CorpusProgram* p : corpus::handwritten())
    programs.push_back(*p);
#ifdef PATTY_OBSERVE_DISABLED
  const bool telemetry = false;  // the executor part needs published runs
#else
  const bool telemetry = true;
#endif
  std::size_t regions = 0, sections = 0, fused = 0, pipelines_run = 0;
  for (const corpus::CorpusProgram& p : programs) {
    const Gated g = analyse(p.source.c_str());
    ASSERT_TRUE(g.program) << p.name;
    const std::vector<rt::TuningConfig> tunings =
        agreement_tunings(g.candidates);
    for (std::size_t t = 0; t < tunings.size(); ++t) {
      std::vector<patterns::RegionPlan> plans;
      for (const patterns::Candidate& c : g.candidates)
        if (c.anchor) plans.push_back(patterns::plan_region(c, &tunings[t]));
      const analysis::MhpGraph graph = build_region_graph(plans);
      std::size_t node = 0;
      for (std::size_t r = 0; r < plans.size(); ++r) {
        const patterns::RegionPlan& plan = plans[r];
        const patterns::Candidate& c = *plan.candidate;
        const std::string where =
            p.name + " " + c.location() + " tuning " + std::to_string(t);
        ++regions;
        // The certifier: one node per member of each resolved stage, at
        // the stage's replication. A section's members and any stage that
        // cannot replicate run once per element.
        for (const patterns::PlanStage& stage : plan.resolved) {
          if (stage.members.size() > 1) ++sections;
          if (stage.label.find('+') != std::string::npos) ++fused;
          if (!stage.replicable) {
            EXPECT_EQ(stage.replication, 1) << where;
          }
          for (const patterns::PlanMember& m : stage.members) {
            ASSERT_LT(node, graph.nodes.size()) << where;
            const analysis::MhpNode& n = graph.nodes[node++];
            EXPECT_EQ(n.region, static_cast<int>(r)) << where;
            EXPECT_EQ(n.stmts, m.stmts) << where;
            EXPECT_EQ(n.multiplicity,
                      stage.replication == 0 ? 2 : stage.replication)
                << where;
          }
        }
        // Codegen's Items.
        if (c.kind != patterns::PatternKind::DataParallelLoop) {
          EXPECT_EQ(source_items(generate_parallel_source(c)),
                    plan_items(plan))
              << where;
        }
        if (c.kind != patterns::PatternKind::Pipeline) continue;
        // The design-time model's stages.
        const tuning::PipelineModelParams model = tuning::design_pipeline(plan);
        ASSERT_EQ(model.stages.size(), plan.stages.size()) << where;
        for (std::size_t s = 0; s < plan.stages.size(); ++s) {
          EXPECT_EQ(model.stages[s].label, plan.stages[s].label) << where;
          EXPECT_EQ(model.stages[s].replicable, plan.stages[s].replicable)
              << where;
        }
        // The executor's published stages.
        if (telemetry &&
            published_stages_follow_plan(*g.program, plan, tunings[t], where))
          ++pipelines_run;
      }
      EXPECT_EQ(node, graph.nodes.size()) << p.name;
    }
  }
  // Not vacuous: sections, fused groups and executed pipelines all occur.
  EXPECT_GT(regions, 100u);
  EXPECT_GT(sections, 0u);
  EXPECT_GT(fused, 0u);
  if (telemetry) {
    EXPECT_GT(pipelines_run, 20u);
  }
}

// A+ => B: Cook replicates, the print does not.
const char* kCookThenPrint = R"(class Main {
  int Cook(int v) { work(20); return v * 3 + 1; }
  void main() {
    list<int> src = new list<int>();
    for (int k = 0; k < 40; k++) { push(src, k); }
    foreach (int v in src) {
      int c = Cook(v);
      print(c);
    }
  }
})";

/// kCookThenPrint's pipeline tuned to stageA.replication=4, fuseAB=1.
struct FusedPrint {
  Gated g;
  const patterns::Candidate* pipe = nullptr;
  rt::TuningConfig config;
};

FusedPrint fused_print() {
  FusedPrint f;
  f.g = analyse(kCookThenPrint);
  for (const patterns::Candidate& c : f.g.candidates)
    if (c.tadl == "A+ => B") f.pipe = &c;
  if (!f.pipe) return f;
  f.config = default_tuning({*f.pipe});
  set_knobs(&f.config, "stageA", ".replication", 4);
  set_knobs(&f.config, "fuseAB", "", 1);
  return f;
}

TEST(RegionPlanTest, FusedGroupWithAPrintRunsInOrder) {
  // The fused group holds the print, so it runs at replication 1, not at
  // A's 4: run at A's replication, the prints came out of order.
  const FusedPrint f = fused_print();
  ASSERT_NE(f.pipe, nullptr);
  const patterns::RegionPlan plan = patterns::plan_region(*f.pipe, &f.config);
  ASSERT_EQ(plan.resolved.size(), 1u);
  EXPECT_EQ(plan.resolved[0].label, "A+B");
  EXPECT_EQ(plan.resolved[0].replication, 1);
  for (int run = 0; run < 50; ++run) {
    ParallelPlanExecutor executor(*f.g.program, {*f.pipe}, &f.config);
    executor.run_main();
    ASSERT_EQ(executor.output(), f.g.expected) << "run " << run;
  }
}

TEST(RegionPlanTest, CertifierGivesAFusedGroupOneNode) {
  const FusedPrint f = fused_print();
  ASSERT_NE(f.pipe, nullptr);
  const analysis::MhpGraph graph =
      build_region_graph({patterns::plan_region(*f.pipe, &f.config)});
  ASSERT_EQ(graph.nodes.size(), 1u);
  EXPECT_EQ(graph.nodes[0].multiplicity, 1);
  EXPECT_EQ(graph.nodes[0].stmts.size(), 2u);
  const ProgramCertificate cert =
      certify_program(*f.g.program, {*f.pipe}, &f.config);
  EXPECT_EQ(cert.verdict, Verdict::CertifiedStatic);
  EXPECT_TRUE(cert.summary.pairs.empty());
}

TEST(RegionPlanTest, SectionMembersRunOncePerElementAtAnyReplication) {
  // avistream's main pipeline A+ => (B+ || C): at every replication knob
  // 4, B still runs once per element inside the section, so no instance
  // of B overlaps another.
  const Gated g = analyse(corpus::avistream().source.c_str());
  ASSERT_TRUE(g.program);
  rt::TuningConfig config = default_tuning(g.candidates);
  set_knobs(&config, "stage", ".replication", 4);
  const ProgramCertificate cert =
      certify_program(*g.program, g.candidates, &config, "avistream");
  bool saw = false;
  for (const RegionCertificate& region : cert.regions) {
    if (region.anchor != "49:5-53:6") continue;
    saw = true;
    EXPECT_EQ(region.verdict, Verdict::CertifiedStatic);
  }
  EXPECT_TRUE(saw);
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
