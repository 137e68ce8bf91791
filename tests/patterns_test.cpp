// Pattern-detection tests: the PL rules of §2.2 (pipeline logic, data and
// control dependences, data stream, tuning parameters), data-parallel loop
// and reduction recognition, master/worker regions, ranking, and the
// optimistic-vs-static distinction.

#include <gtest/gtest.h>

#include "analysis/semantic_model.hpp"
#include "lang/sema.hpp"
#include "patterns/detector.hpp"

namespace patty::patterns {
namespace {

struct Detect {
  DiagnosticSink diags;
  std::unique_ptr<lang::Program> program;
  std::unique_ptr<analysis::SemanticModel> model;
  DetectionResult result;

  explicit Detect(std::string_view src, DetectionOptions options = {}) {
    program = lang::parse_and_check(src, diags);
    EXPECT_TRUE(program) << diags.to_string();
    model = analysis::SemanticModel::build(*program);
    result = detect_all(*model, options);
  }

  const Candidate* find(PatternKind kind) const {
    for (const Candidate& c : result.candidates)
      if (c.kind == kind) return &c;
    return nullptr;
  }
};

// The paper's running example (figure 2/3): a video filter chain. Three
// independent filters, a combiner, and an ordered append.
const char* kAviSource = R"(
class Image {
  int width;
  int data;
  Image WithData(int d) {
    Image r = new Image();
    r.width = width;
    r.data = d;
    return r;
  }
}
class Filter {
  int strength;
  Image Apply(Image img) {
    work(40);
    return img.WithData(img.data + strength);
  }
}
class Conv {
  Image Apply(Image a, Image b, Image c) {
    work(10);
    return a.WithData(a.data + b.data + c.data);
  }
}
class Main {
  Filter cropFilter;
  Filter histogramFilter;
  Filter oilFilter;
  Conv conv;
  void init() {
    cropFilter = new Filter();
    histogramFilter = new Filter();
    oilFilter = new Filter();
    conv = new Conv();
  }
  list<Image> Process(list<Image> aviIn) {
    list<Image> aviOut = new list<Image>();
    foreach (Image i in aviIn) {
      Image c = cropFilter.Apply(i);
      Image h = histogramFilter.Apply(i);
      Image o = oilFilter.Apply(i);
      Image r = conv.Apply(c, h, o);
      push(aviOut, r);
    }
    return aviOut;
  }
  void main() {
    list<Image> frames = new list<Image>();
    for (int k = 0; k < 12; k++) {
      Image img = new Image();
      img.data = k;
      push(frames, img);
    }
    list<Image> out = Process(frames);
    print(len(out));
  }
}
)";

TEST(PipelineDetectorTest, AviStreamBecomesPipeline) {
  Detect d(kAviSource);
  const Candidate* pipe = d.find(PatternKind::Pipeline);
  ASSERT_NE(pipe, nullptr);
  EXPECT_EQ(pipe->anchor->kind, lang::StmtKind::Foreach);
  // Five top-level statements, no carried deps among the first four;
  // the append is its own stage.
  EXPECT_EQ(pipe->stages.size(), 5u);
  // The three filters are mutually independent: first section groups them.
  ASSERT_GE(pipe->sections.size(), 2u);
  EXPECT_EQ(pipe->sections[0].size(), 3u);
  // TADL mirrors figure 3b's shape.
  EXPECT_NE(pipe->tadl.find("||"), std::string::npos);
  EXPECT_NE(pipe->tadl.find("=>"), std::string::npos);
}

TEST(PipelineDetectorTest, FilterStagesAreReplicableAppendIsNot) {
  Detect d(kAviSource);
  const Candidate* pipe = d.find(PatternKind::Pipeline);
  ASSERT_NE(pipe, nullptr);
  // Stages A-D (filters + conv) have no carried deps -> replicable.
  EXPECT_TRUE(pipe->stages[0].replicable);
  EXPECT_TRUE(pipe->stages[3].replicable);
  // Stage E appends to the shared output list -> carried -> not replicable.
  EXPECT_FALSE(pipe->stages.back().replicable);
}

TEST(PipelineDetectorTest, TuningParametersFollowPLTP) {
  Detect d(kAviSource);
  const Candidate* pipe = d.find(PatternKind::Pipeline);
  ASSERT_NE(pipe, nullptr);
  bool has_replication = false, has_order = false, has_fusion = false,
       has_sequential = false, has_buffer = false;
  for (const rt::TuningParameter& p : pipe->tuning) {
    if (p.name.find(".replication") != std::string::npos) has_replication = true;
    if (p.name.find(".order") != std::string::npos) has_order = true;
    if (p.name.find(".fuse") != std::string::npos) has_fusion = true;
    if (p.name.find(".sequential") != std::string::npos) has_sequential = true;
    if (p.name.find(".buffer") != std::string::npos) has_buffer = true;
    EXPECT_FALSE(p.location.empty()) << p.name;
  }
  EXPECT_TRUE(has_replication);
  EXPECT_TRUE(has_order);
  EXPECT_TRUE(has_fusion);
  EXPECT_TRUE(has_sequential);
  EXPECT_TRUE(has_buffer);
}

TEST(PipelineDetectorTest, PLCDRejectsBreak) {
  Detect d(R"(
class Main {
  void main() {
    int[] a = new int[10];
    foreach (int x in a) {
      int y = x + 1;
      if (y > 5) { break; }
      print(y);
    }
  }
})");
  EXPECT_EQ(d.find(PatternKind::Pipeline), nullptr);
  bool plcd = false;
  for (const RejectedLoop& r : d.result.rejected)
    if (r.rule == "PLCD") plcd = true;
  EXPECT_TRUE(plcd);
}

TEST(PipelineDetectorTest, NestedLoopBreakIsAllowed) {
  Detect d(R"(
class Main {
  int Find(int v) {
    for (int j = 0; j < 10; j++) { if (j == v) { break; } }
    return work(30) + v;
  }
  void main() {
    list<int> out = new list<int>();
    int[] a = new int[8];
    foreach (int x in a) {
      int y = Find(x);
      push(out, y);
    }
    print(len(out));
  }
})");
  EXPECT_NE(d.find(PatternKind::Pipeline), nullptr);
}

TEST(PipelineDetectorTest, PLDDMergesCarriedRangeIntoOneStage) {
  // s0 -> s2 carried dependence through `prev`: s0..s2 become one stage.
  Detect d(R"(
class Main {
  int prev;
  void main() {
    list<int> out = new list<int>();
    int[] a = new int[10];
    foreach (int x in a) {
      int y = x + prev;
      int z = work(20) + y;
      prev = z;
      push(out, z);
    }
    print(len(out));
  }
})");
  const Candidate* pipe = d.find(PatternKind::Pipeline);
  ASSERT_NE(pipe, nullptr);
  // 4 body statements; first three glued by the carried dep via `prev`.
  EXPECT_EQ(pipe->stages.size(), 2u);
  EXPECT_EQ(pipe->stages[0].stmt_ids.size(), 3u);
  EXPECT_FALSE(pipe->stages[0].replicable);
}

TEST(PipelineDetectorTest, FullyCollapsedLoopRejected) {
  // Carried dependence from the last to the first statement collapses all.
  Detect d(R"(
class Main {
  int state;
  void main() {
    int[] a = new int[10];
    foreach (int x in a) {
      int y = state + x;
      state = y * 2;
    }
    print(state);
  }
})");
  EXPECT_EQ(d.find(PatternKind::Pipeline), nullptr);
}

TEST(DataParallelDetectorTest, IndependentForLoop) {
  Detect d(R"(
class Main {
  void main() {
    int[] src = new int[64];
    int[] dst = new int[64];
    for (int i = 0; i < 64; i++) {
      dst[i] = src[i] * 2 + work(5);
    }
    print(dst[0]);
  }
})");
  const Candidate* c = d.find(PatternKind::DataParallelLoop);
  ASSERT_NE(c, nullptr);
  EXPECT_FALSE(c->is_reduction);
  bool has_threads = false, has_grain = false;
  for (const rt::TuningParameter& p : c->tuning) {
    if (p.name.find(".threads") != std::string::npos) has_threads = true;
    if (p.name.find(".grain") != std::string::npos) has_grain = true;
  }
  EXPECT_TRUE(has_threads);
  EXPECT_TRUE(has_grain);
}

TEST(DataParallelDetectorTest, SumReductionRecognized) {
  Detect d(R"(
class Main {
  void main() {
    int[] a = new int[100];
    for (int i = 0; i < 100; i++) { a[i] = i; }
    int sum = 0;
    for (int i = 0; i < 100; i++) {
      sum = sum + a[i] * a[i];
    }
    print(sum);
  }
})");
  bool found_reduction = false;
  for (const Candidate& c : d.result.candidates)
    if (c.kind == PatternKind::DataParallelLoop && c.is_reduction)
      found_reduction = true;
  EXPECT_TRUE(found_reduction);
}

TEST(DataParallelDetectorTest, TrueRecurrenceRejected) {
  Detect d(R"(
class Main {
  void main() {
    int[] a = new int[50];
    a[0] = 1;
    for (int i = 1; i < 50; i++) {
      a[i] = a[i - 1] + 1;
    }
    print(a[49]);
  }
})");
  EXPECT_EQ(d.find(PatternKind::DataParallelLoop), nullptr);
  EXPECT_EQ(d.find(PatternKind::Pipeline), nullptr);  // single stmt body
}

TEST(DataParallelDetectorTest, ContinueIsAllowed) {
  Detect d(R"(
class Main {
  void main() {
    int[] dst = new int[32];
    for (int i = 0; i < 32; i++) {
      if (i % 3 == 0) { continue; }
      dst[i] = work(5) + i;
    }
    print(dst[1]);
  }
})");
  EXPECT_NE(d.find(PatternKind::DataParallelLoop), nullptr);
}

TEST(DataParallelDetectorTest, PerIterationTemporaryIsNotACarriedCell) {
  // Each iteration allocates its own `t`. The array freed in iteration i is
  // typically reallocated at the same address in iteration i + 2; traced
  // cells are keyed by allocation, so that reuse is no dependence.
  Detect d(R"(
class Main {
  void main() {
    int[] out = new int[16];
    for (int i = 0; i < 16; i++) {
      int[] t = new int[2];
      t[0] = i + work(2);
      t[1] = i * 2;
      out[i] = t[0] + t[1];
    }
    print(out[15]);
  }
})");
  const lang::Stmt* loop =
      d.program->find_class("Main")->find_method("main")->body->stmts[1].get();
  ASSERT_EQ(loop->kind, lang::StmtKind::For);
  for (const analysis::Dep& dep :
       d.model->loop_dependences(*loop, /*optimistic=*/true))
    EXPECT_FALSE(dep.carried) << dep.str();
  const Candidate* c = d.find(PatternKind::DataParallelLoop);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->anchor, loop);
  EXPECT_EQ(d.find(PatternKind::Pipeline), nullptr);
}

TEST(MasterWorkerDetectorTest, IndependentCallRunDetected) {
  Detect d(R"(
class Worker {
  int state;
  int Job(int n) { return work(n); }
}
class Main {
  Worker w1; Worker w2; Worker w3;
  void init() { w1 = new Worker(); w2 = new Worker(); w3 = new Worker(); }
  void main() {
    Main m = new Main();
    int a = m.w1.Job(100);
    int b = m.w2.Job(120);
    int c = m.w3.Job(90);
    print(a + b + c);
  }
})");
  const Candidate* mw = d.find(PatternKind::MasterWorker);
  ASSERT_NE(mw, nullptr);
  EXPECT_EQ(mw->task_stmt_ids.size(), 3u);
  EXPECT_EQ(mw->tadl, "(A || B || C)");
}

TEST(MasterWorkerDetectorTest, DependentCallsNotGrouped) {
  Detect d(R"(
class Main {
  int Job(int n) { return work(n); }
  void main() {
    int a = Job(10);
    int b = Job(a);
    print(b);
  }
})");
  EXPECT_EQ(d.find(PatternKind::MasterWorker), nullptr);
}

TEST(DetectAllTest, RankingByRuntimeShare) {
  Detect d(R"(
class Main {
  void main() {
    int[] cheap = new int[4];
    for (int i = 0; i < 4; i++) { cheap[i] = work(1); }
    int[] hot = new int[64];
    for (int i = 0; i < 64; i++) { hot[i] = work(200); }
    print(hot[0] + cheap[0]);
  }
})");
  ASSERT_GE(d.result.candidates.size(), 2u);
  EXPECT_GE(d.result.candidates[0].runtime_share,
            d.result.candidates[1].runtime_share);
  // The hot loop must rank first.
  EXPECT_GT(d.result.candidates[0].runtime_share, 0.5);
}

TEST(DetectAllTest, MinRuntimeShareFilters) {
  DetectionOptions options;
  options.min_runtime_share = 0.5;
  Detect d(R"(
class Main {
  void main() {
    int[] cheap = new int[4];
    for (int i = 0; i < 4; i++) { cheap[i] = work(1); }
    int[] hot = new int[64];
    for (int i = 0; i < 64; i++) { hot[i] = work(200); }
    print(hot[0] + cheap[0]);
  }
})",
           options);
  ASSERT_EQ(d.result.candidates.size(), 1u);
}

TEST(DetectAllTest, OptimisticFindsMoreThanStatic) {
  // Disjoint arrays with a shifted read: dynamic analysis proves
  // independence, while the type-based static analysis cannot — the i + 1
  // subscript defeats the induction-uniform refinement, so this is the
  // paper's core optimism argument in its post-refinement form.
  const char* src = R"(
class Main {
  void main() {
    int[] src = new int[32];
    int[] dst = new int[32];
    for (int i = 0; i < 31; i++) {
      dst[i] = src[i + 1] + work(3);
    }
    print(dst[0]);
  }
})";
  Detect optimistic(src);
  DetectionOptions static_opts;
  static_opts.optimistic = false;
  Detect pessimistic(src, static_opts);
  EXPECT_NE(optimistic.find(PatternKind::DataParallelLoop), nullptr);
  EXPECT_EQ(pessimistic.find(PatternKind::DataParallelLoop), nullptr);
}

TEST(DetectAllTest, StageLabels) {
  EXPECT_EQ(stage_label(0), "A");
  EXPECT_EQ(stage_label(25), "Z");
  EXPECT_EQ(stage_label(26), "A1");
}

TEST(DetectAllTest, PrintingLoopStagesNotReplicable) {
  Detect d(R"(
class Main {
  void main() {
    int[] a = new int[16];
    foreach (int x in a) {
      int y = work(10) + x;
      print(y);
    }
  }
})");
  const Candidate* pipe = d.find(PatternKind::Pipeline);
  ASSERT_NE(pipe, nullptr);
  EXPECT_FALSE(pipe->stages.back().replicable);  // the printing stage
}

}  // namespace
}  // namespace patty::patterns
