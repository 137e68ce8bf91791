// Edge cases for the detector beyond the main patterns_test suite:
// while-loop pipelines, nested loops, empty/degenerate bodies, codegen for
// all three patterns, and the TADL structure of sectioned pipelines.

#include <gtest/gtest.h>

#include "analysis/semantic_model.hpp"
#include "lang/sema.hpp"
#include "patterns/detector.hpp"
#include "tadl/tadl.hpp"
#include "transform/codegen.hpp"

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

TEST(DetectorEdgeTest, WhileLoopCanBePipeline) {
  // PLPL: "we consider all sequential program loops" — while loops stream
  // too; the plan executor falls back at run time, but detection reports it.
  Detect d(R"(
class Main {
  void main() {
    list<int> out = new list<int>();
    int n = 0;
    while (n < 10) {
      int y = work(10) + n;
      push(out, y);
      n = n + 1;
    }
    print(len(out));
  }
})");
  // `n` is carried (read by header & body, written by body): the loop may
  // collapse or be rejected, but must never be data-parallel.
  EXPECT_EQ(d.find(PatternKind::DataParallelLoop), nullptr);
}

TEST(DetectorEdgeTest, NestedLoopsDetectedIndependently) {
  Detect d(R"(
class Main {
  void main() {
    list<int[]> rows = new list<int[]>();
    for (int r = 0; r < 8; r++) {
      int[] row = new int[8];
      for (int c = 0; c < 8; c++) {
        row[c] = r * 8 + c + work(2);
      }
      push(rows, row);
    }
    print(len(rows));
  }
})");
  // Both loops appear in the loop list; at least the inner one is a
  // data-parallel candidate.
  EXPECT_GE(d.model->loops().size(), 2u);
  EXPECT_NE(d.find(PatternKind::DataParallelLoop), nullptr);
}

TEST(DetectorEdgeTest, EmptyBodyLoopRejected) {
  Detect d(R"(
class Main {
  void main() {
    for (int i = 0; i < 3; i++) { }
    print(1);
  }
})");
  EXPECT_TRUE(d.result.candidates.empty());
}

TEST(DetectorEdgeTest, SectionedTadlParses) {
  // Whatever TADL the detector emits must parse back and enumerate the
  // same number of tasks as there are stages.
  Detect d(R"(
class W { int Go(int v) { return work(v); } }
class Main {
  W w1; W w2;
  void init() { w1 = new W(); w2 = new W(); }
  void main() {
    list<int> out = new list<int>();
    int[] a = new int[12];
    foreach (int x in a) {
      int p = w1.Go(10 + x);
      int q = w2.Go(20 + x);
      int s = p + q;
      push(out, s);
    }
    print(len(out));
  }
})");
  const Candidate* pipe = d.find(PatternKind::Pipeline);
  ASSERT_NE(pipe, nullptr);
  std::string error;
  tadl::TadlPtr parsed = tadl::parse_tadl(pipe->tadl, &error);
  ASSERT_TRUE(parsed) << pipe->tadl << ": " << error;
  EXPECT_EQ(parsed->task_names().size(), pipe->stages.size());
  // p and q are independent: first section is a master/worker pair.
  ASSERT_FALSE(pipe->sections.empty());
  EXPECT_EQ(pipe->sections[0].size(), 2u);
}

TEST(DetectorEdgeTest, CodegenForAllPatternKinds) {
  Detect d(R"(
class W { int Go(int v) { return work(v); } }
class Main {
  W w1; W w2;
  void init() { w1 = new W(); w2 = new W(); }
  void main() {
    int a = w1.Go(30);
    int b = w2.Go(40);
    int[] xs = new int[32];
    for (int i = 0; i < 32; i++) { xs[i] = i * i + work(2); }
    int sum = 0;
    for (int i = 0; i < 32; i++) { sum = sum + xs[i]; }
    list<int> out = new list<int>();
    foreach (int x in xs) {
      int y = work(5) + x;
      push(out, y);
    }
    print(a + b + sum + len(out));
  }
})");
  bool saw_pipeline = false, saw_parfor = false, saw_mw = false;
  for (const Candidate& c : d.result.candidates) {
    const std::string code = transform::generate_parallel_source(c);
    EXPECT_FALSE(code.empty());
    switch (c.kind) {
      case PatternKind::Pipeline:
        saw_pipeline = true;
        EXPECT_NE(code.find("new Pipeline"), std::string::npos);
        break;
      case PatternKind::DataParallelLoop:
        saw_parfor = true;
        EXPECT_NE(code.find("ParallelFor"), std::string::npos);
        break;
      case PatternKind::MasterWorker:
        saw_mw = true;
        EXPECT_NE(code.find("new MasterWorker"), std::string::npos);
        break;
    }
  }
  EXPECT_TRUE(saw_pipeline);
  EXPECT_TRUE(saw_parfor);
  EXPECT_TRUE(saw_mw);
}

TEST(DetectorEdgeTest, ReductionOnDoubleAccumulator) {
  Detect d(R"(
class Main {
  void main() {
    double acc = 0.5;
    int[] a = new int[64];
    for (int i = 0; i < 64; i++) { a[i] = i; }
    for (int i = 0; i < 64; i++) {
      acc = acc + a[i] * 0.25;
    }
    print(floor(acc));
  }
})");
  bool reduction = false;
  for (const Candidate& c : d.result.candidates)
    if (c.is_reduction) reduction = true;
  EXPECT_TRUE(reduction);
}

TEST(DetectorEdgeTest, ProductReductionRecognized) {
  Detect d(R"(
class Main {
  void main() {
    int[] a = new int[10];
    for (int i = 0; i < 10; i++) { a[i] = 1 + i % 3; }
    int prod = 1;
    for (int i = 0; i < 10; i++) {
      prod = prod * a[i];
    }
    print(prod);
  }
})");
  bool reduction = false;
  for (const Candidate& c : d.result.candidates)
    if (c.is_reduction) reduction = true;
  EXPECT_TRUE(reduction);
}

TEST(DetectorEdgeTest, NonAssociativeUpdateRejected) {
  // acc = acc / a[i] is not a recognized reduction shape.
  Detect d(R"(
class Main {
  void main() {
    int[] a = new int[10];
    for (int i = 0; i < 10; i++) { a[i] = 1 + i; }
    int acc = 1000000;
    for (int i = 0; i < 10; i++) {
      acc = acc / a[i];
    }
    print(acc);
  }
})");
  for (const Candidate& c : d.result.candidates)
    EXPECT_FALSE(c.is_reduction);
}

TEST(DetectorEdgeTest, FalseNegativeFixColdUniformMapFoundStatically) {
  // Regression (PR-8 FN fix): a parallel map in a never-executed branch has
  // no profile, so detection falls back to the static analysis — which used
  // to reject `dst[i] = src[i] + 1` on the type-aliased Elements(int[])
  // self-dependence. The induction-subscript refinement discharges it:
  // every element access subscripts with exactly the canonical induction
  // variable, so iterations touch disjoint indices in any aliasing.
  Detect d(R"(
class Main {
  int[] src; int[] dst;
  void init() { src = new int[16]; dst = new int[16]; }
  void Cold(int flag) {
    if (flag > 1000) {
      for (int i = 0; i < 16; i++) {
        dst[i] = src[i] + 1;
      }
    }
  }
  void main() {
    Cold(0);
    print(dst[0]);
  }
})");
  EXPECT_NE(d.find(PatternKind::DataParallelLoop), nullptr);
  // The same holds for the purely static baseline: no profile is involved.
  DetectionOptions static_opts;
  static_opts.optimistic = false;
  Detect baseline(R"(
class Main {
  int[] src; int[] dst;
  void init() { src = new int[16]; dst = new int[16]; }
  void main() {
    for (int i = 0; i < 16; i++) {
      dst[i] = src[i] + 1;
    }
    print(dst[0]);
  }
})",
                  static_opts);
  EXPECT_NE(baseline.find(PatternKind::DataParallelLoop), nullptr);
}

TEST(DetectorEdgeTest, InductionRefinementKeepsRealRecurrences) {
  // The refinement must not discharge subscripts it cannot prove disjoint:
  // a first-order recurrence reads chain[i - 1].
  Detect d(R"(
class Main {
  void main() {
    int[] chain = new int[16];
    chain[0] = 1;
    for (int i = 1; i < 16; i++) {
      chain[i] = chain[i - 1] + 1;
    }
    print(chain[15]);
  }
})");
  EXPECT_EQ(d.find(PatternKind::DataParallelLoop), nullptr);
}

TEST(DetectorEdgeTest, FalsePositiveFixScatterGuardRejectsIndexLoad) {
  // Regression (PR-8 FP fix): the profiled input makes idx an identity
  // permutation, so the observed dependences show independent writes — but
  // idx may contain duplicates in general. The PLDS guard distrusts the
  // observed evidence because the write subscript loads memory and the
  // static analysis still sees a carried dependence.
  const char* src = R"(
class Main {
  int[] src; int[] dst; int[] idx;
  void init() {
    src = new int[16]; dst = new int[16]; idx = new int[16];
    for (int i = 0; i < 16; i++) { idx[i] = i; src[i] = i * 3; }
  }
  void main() {
    for (int i = 0; i < 16; i++) {
      dst[idx[i]] = src[i] + 1;
    }
    print(dst[0]);
  }
})";
  // (The init loop is a legitimate data-parallel candidate, so assertions
  // target the scatter loop in main.)
  auto main_parfor = [](const Detect& d) {
    for (const Candidate& c : d.result.candidates)
      if (c.kind == PatternKind::DataParallelLoop &&
          c.method->name.view() == "main")
        return true;
    return false;
  };
  Detect guarded(src);
  EXPECT_FALSE(main_parfor(guarded));
  bool plds = false;
  for (const RejectedLoop& r : guarded.result.rejected)
    if (r.rule == "PLDS") plds = true;
  EXPECT_TRUE(plds);
  // Disabling the guard reproduces the pre-fix optimistic claim.
  DetectionOptions unguarded;
  unguarded.scatter_guard = false;
  Detect trusting(src, unguarded);
  EXPECT_TRUE(main_parfor(trusting));
}

TEST(DetectorEdgeTest, ScatterGuardLeavesPureSubscriptsAlone) {
  // Affine local-only subscripts carry no aliasing risk: the guard must not
  // reject the classic hot map (precision on the verified kernels).
  Detect d(R"(
class Main {
  void main() {
    int[] a = new int[32];
    for (int i = 0; i < 32; i++) {
      a[i * 1] = i + work(2);
    }
    print(a[0]);
  }
})");
  EXPECT_NE(d.find(PatternKind::DataParallelLoop), nullptr);
}

}  // namespace
}  // namespace patty::patterns
