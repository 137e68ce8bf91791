// Tests for the static-analysis substrates: CFG construction, call graph,
// effect sets, and static loop dependence analysis.

#include <gtest/gtest.h>

#include "analysis/callgraph.hpp"
#include "analysis/cfg.hpp"
#include "analysis/dependence.hpp"
#include "analysis/effects.hpp"
#include "lang/sema.hpp"

namespace patty::analysis {
namespace {

struct Fixture {
  DiagnosticSink diags;
  std::unique_ptr<lang::Program> program;
  CallGraph cg;
  std::unique_ptr<EffectAnalysis> effects;

  explicit Fixture(std::string_view src) {
    program = lang::parse_and_check(src, diags);
    EXPECT_TRUE(program) << diags.to_string();
    if (program) {
      cg = build_call_graph(*program);
      effects = std::make_unique<EffectAnalysis>(*program, cg);
    }
  }

  const lang::MethodDecl* method(const std::string& cls,
                                 const std::string& name) const {
    return program->find_class(cls)->find_method(name);
  }

  /// First loop statement in a method body (top level).
  const lang::Stmt* first_loop(const lang::MethodDecl* m) const {
    for (const auto& s : m->body->stmts) {
      if (s->kind == lang::StmtKind::For ||
          s->kind == lang::StmtKind::While ||
          s->kind == lang::StmtKind::Foreach)
        return s.get();
    }
    return nullptr;
  }
};

// --- CFG -------------------------------------------------------------------

TEST(CfgTest, StraightLine) {
  Fixture f("class A { void F() { int x = 1; int y = 2; print(x + y); } }");
  const Cfg cfg = build_cfg(*f.method("A", "F"));
  // entry, exit, 3 statements.
  EXPECT_EQ(cfg.size(), 5u);
  auto reach = reachable_from_entry(cfg);
  for (std::size_t i = 0; i < cfg.size(); ++i) EXPECT_TRUE(reach[i]) << i;
}

TEST(CfgTest, IfElseJoins) {
  Fixture f(R"(class A { void F(bool c) {
    if (c) { print(1); } else { print(2); }
    print(3);
  } })");
  const Cfg cfg = build_cfg(*f.method("A", "F"));
  // The join statement print(3) must have two predecessors.
  const lang::Stmt* join = f.method("A", "F")->body->stmts[1].get();
  const int idx = cfg.node_for(join);
  ASSERT_GE(idx, 0);
  EXPECT_EQ(cfg.nodes[static_cast<std::size_t>(idx)].preds.size(), 2u);
}

TEST(CfgTest, IfWithoutElseFallsThrough) {
  Fixture f("class A { void F(bool c) { if (c) { print(1); } print(2); } }");
  const Cfg cfg = build_cfg(*f.method("A", "F"));
  const lang::Stmt* after = f.method("A", "F")->body->stmts[1].get();
  const int idx = cfg.node_for(after);
  EXPECT_EQ(cfg.nodes[static_cast<std::size_t>(idx)].preds.size(), 2u);
}

TEST(CfgTest, WhileLoopBackEdge) {
  Fixture f("class A { void F(int n) { while (n > 0) { n = n - 1; } } }");
  const Cfg cfg = build_cfg(*f.method("A", "F"));
  const lang::Stmt* loop = f.method("A", "F")->body->stmts[0].get();
  const int head = cfg.node_for(loop);
  ASSERT_GE(head, 0);
  // Head has a predecessor that is the loop body statement (back edge).
  bool has_back_edge = false;
  for (int p : cfg.nodes[static_cast<std::size_t>(head)].preds) {
    const CfgNode& n = cfg.nodes[static_cast<std::size_t>(p)];
    if (n.stmt && n.stmt->kind == lang::StmtKind::Assign) has_back_edge = true;
  }
  EXPECT_TRUE(has_back_edge);
}

TEST(CfgTest, BreakExitsLoop) {
  Fixture f(R"(class A { void F() {
    while (true) { break; }
    print(1);
  } })");
  const Cfg cfg = build_cfg(*f.method("A", "F"));
  auto reach = reachable_from_entry(cfg);
  const lang::Stmt* after = f.method("A", "F")->body->stmts[1].get();
  EXPECT_TRUE(reach[static_cast<std::size_t>(cfg.node_for(after))]);
}

TEST(CfgTest, ReturnLinksToExit) {
  Fixture f("class A { int F() { return 1; } }");
  const Cfg cfg = build_cfg(*f.method("A", "F"));
  const lang::Stmt* ret = f.method("A", "F")->body->stmts[0].get();
  const int idx = cfg.node_for(ret);
  ASSERT_GE(idx, 0);
  ASSERT_EQ(cfg.nodes[static_cast<std::size_t>(idx)].succs.size(), 1u);
  EXPECT_EQ(cfg.nodes[static_cast<std::size_t>(idx)].succs[0], cfg.exit);
}

TEST(CfgTest, ForLoopStructure) {
  Fixture f("class A { void F() { for (int i = 0; i < 3; i++) { print(i); } } }");
  const Cfg cfg = build_cfg(*f.method("A", "F"));
  auto reach = reachable_from_entry(cfg);
  for (std::size_t i = 0; i < cfg.size(); ++i) EXPECT_TRUE(reach[i]) << i;
}

// --- Call graph -------------------------------------------------------------

TEST(CallGraphTest, DirectCalls) {
  Fixture f(R"(
    class B { int G() { return 1; } }
    class A { B b; int F() { return b.G(); } }
  )");
  const lang::MethodDecl* F = f.method("A", "F");
  const lang::MethodDecl* G = f.method("B", "G");
  auto reach = f.cg.reachable(F);
  EXPECT_TRUE(reach.count(G));
  EXPECT_FALSE(f.cg.reachable(G).count(F));
}

TEST(CallGraphTest, TransitiveReachability) {
  Fixture f(R"(
    class A {
      int C() { return 1; }
      int B() { return C(); }
      int F() { return B(); }
    }
  )");
  auto reach = f.cg.reachable(f.method("A", "F"));
  EXPECT_EQ(reach.size(), 3u);
}

TEST(CallGraphTest, ConstructorEdges) {
  Fixture f(R"(
    class P { int x; void init(int v) { x = v; } }
    class A { void F() { P p = new P(3); print(p.x); } }
  )");
  auto reach = f.cg.reachable(f.method("A", "F"));
  EXPECT_TRUE(reach.count(f.method("P", "init")));
}

TEST(CallGraphTest, RecursionDetected) {
  Fixture f(R"(
    class A {
      int fact(int n) { if (n <= 1) { return 1; } return n * fact(n - 1); }
      int plain() { return 7; }
    }
  )");
  EXPECT_TRUE(f.cg.is_recursive(f.method("A", "fact")));
  EXPECT_FALSE(f.cg.is_recursive(f.method("A", "plain")));
}

TEST(CallGraphTest, MutualRecursion) {
  Fixture f(R"(
    class A {
      int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }
      int odd(int n) { if (n == 0) { return 0; } return even(n - 1); }
    }
  )");
  EXPECT_TRUE(f.cg.is_recursive(f.method("A", "even")));
  EXPECT_TRUE(f.cg.is_recursive(f.method("A", "odd")));
}

// --- Effects ----------------------------------------------------------------

TEST(EffectsTest, LocalReadsAndWrites) {
  Fixture f("class A { void F(int a) { int b = a + 1; print(b); } }");
  const auto& body = f.method("A", "F")->body->stmts;
  EffectSet decl = f.effects->stmt_effects(*body[0]);
  EXPECT_TRUE(decl.reads.count(AbsLoc::local(0)));   // a
  EXPECT_TRUE(decl.writes.count(AbsLoc::local(1)));  // b
}

TEST(EffectsTest, FieldEffectsThroughCalls) {
  Fixture f(R"(
    class Counter { int v; void bump() { v = v + 1; } }
    class A { Counter c; void F() { c.bump(); } }
  )");
  const auto& summary = f.effects->method_summary(f.method("Counter", "bump"));
  EXPECT_TRUE(summary.writes.count(AbsLoc::field_loc("Counter", 0)));
  EXPECT_TRUE(summary.reads.count(AbsLoc::field_loc("Counter", 0)));
  // Caller's statement inherits the callee effects.
  const auto& call_stmt = *f.method("A", "F")->body->stmts[0];
  EffectSet es = f.effects->stmt_effects(call_stmt);
  EXPECT_TRUE(es.writes.count(AbsLoc::field_loc("Counter", 0)));
}

TEST(EffectsTest, TransitiveSummaryFixedPoint) {
  Fixture f(R"(
    class S { int v; }
    class A {
      S s;
      void c() { s.v = 1; }
      void b() { c(); }
      void a() { b(); }
    }
  )");
  const auto& summary = f.effects->method_summary(f.method("A", "a"));
  EXPECT_TRUE(summary.writes.count(AbsLoc::field_loc("S", 0)));
}

TEST(EffectsTest, RecursiveSummaryTerminates) {
  Fixture f(R"(
    class A {
      int acc;
      int down(int n) { acc = acc + n; if (n == 0) { return 0; } return down(n - 1); }
    }
  )");
  const auto& summary = f.effects->method_summary(f.method("A", "down"));
  EXPECT_TRUE(summary.writes.count(AbsLoc::field_loc("A", 0)));
}

TEST(EffectsTest, PrintWritesIo) {
  Fixture f("class A { void F() { print(1); } }");
  EffectSet es = f.effects->stmt_effects(*f.method("A", "F")->body->stmts[0]);
  EXPECT_TRUE(es.writes.count(AbsLoc::io()));
}

TEST(EffectsTest, PushWritesListShape) {
  Fixture f(R"(class A { void F() {
    list<int> xs = new list<int>();
    push(xs, 1);
  } })");
  EffectSet es = f.effects->stmt_effects(*f.method("A", "F")->body->stmts[1]);
  EXPECT_TRUE(es.writes.count(AbsLoc::list_shape("list<int>")));
}

TEST(EffectsTest, IndexWriteHitsElements) {
  Fixture f("class A { void F(int[] a) { a[0] = 1; } }");
  EffectSet es = f.effects->stmt_effects(*f.method("A", "F")->body->stmts[0]);
  EXPECT_TRUE(es.writes.count(AbsLoc::elements("int[]")));
}

TEST(EffectsTest, EqualityAgreesWithThreeWayComparisonOverAllKinds) {
  // Property: for every pair of locations, operator== and cmp() must tell
  // the same story — equality is defined as cmp() == 0 precisely so the two
  // can never drift apart when AbsLoc grows fields, and this test keeps any
  // future hand-rolled operator== honest. The battery covers every kind and
  // the order-sensitive corners: slots whose decimal spellings sort unlike
  // their values (2 vs 10, 9 vs 10, 99 vs 100 vs 1000), spellings where one
  // is a prefix of the other (12 vs 120, 1 vs 10 vs 100), the default -1
  // (its '-' sorts before every digit), class names where one is a prefix
  // of another (the ':' sentinel in the Field key), and shared vs. distinct
  // type sigs.
  const std::vector<int> numbers = {-1, 0, 1, 2, 9, 10, 12, 99, 100, 120, 1000};
  std::vector<AbsLoc> locs;
  for (int slot : numbers) locs.push_back(AbsLoc::local(slot));
  for (const char* cls : {"A", "AB", "Counter"})
    for (int field : numbers) locs.push_back(AbsLoc::field_loc(cls, field));
  for (const char* sig : {"int[]", "list<int>", "list<list<int>>"}) {
    locs.push_back(AbsLoc::elements(sig));
    locs.push_back(AbsLoc::list_shape(sig));
  }
  locs.push_back(AbsLoc::io());
  // Duplicates constructed independently must land equal.
  locs.push_back(AbsLoc::local(2));
  locs.push_back(AbsLoc::field_loc("AB", 1));
  locs.push_back(AbsLoc::elements("int[]"));

  for (const AbsLoc& a : locs) {
    for (const AbsLoc& b : locs) {
      const int c = a.cmp(b);
      EXPECT_EQ(a == b, c == 0) << a.key() << " vs " << b.key();
      EXPECT_EQ(a < b, c < 0) << a.key() << " vs " << b.key();
      // cmp matches the legacy string order of key() exactly.
      EXPECT_EQ(c < 0, a.key() < b.key()) << a.key() << " vs " << b.key();
      EXPECT_EQ(c == 0, a.key() == b.key()) << a.key() << " vs " << b.key();
      // Antisymmetry.
      EXPECT_EQ(c == 0 ? 0 : (c < 0 ? -1 : 1),
                b.cmp(a) == 0 ? 0 : (b.cmp(a) < 0 ? 1 : -1))
          << a.key() << " vs " << b.key();
    }
  }
}

// --- Static loop dependences -------------------------------------------------

TEST(StaticDepTest, IndependentIterationsHaveNoCarriedDeps) {
  Fixture f(R"(class A { void F(int[] src, int[] dst) {
    for (int i = 0; i < len(src); i++) {
      int v = src[i];
      print(v);
    }
  } })");
  const lang::Stmt* loop = f.first_loop(f.method("A", "F"));
  ASSERT_TRUE(loop);
  auto body = loop_body_statements(*loop);
  auto deps = static_loop_dependences(body, *f.effects, f.method("A", "F"));
  for (const Dep& d : deps) {
    if (d.kind == DepKind::True) EXPECT_FALSE(d.carried) << d.str();
  }
}

TEST(StaticDepTest, AccumulatorIsSelfCarried) {
  Fixture f(R"(class A { int F(int[] a) {
    int sum = 0;
    for (int i = 0; i < len(a); i++) {
      sum = sum + a[i];
    }
    return sum;
  } })");
  const lang::Stmt* loop = f.first_loop(f.method("A", "F"));
  // The loop is the second statement.
  const lang::Stmt* the_loop = f.method("A", "F")->body->stmts[1].get();
  ASSERT_EQ(loop, the_loop);
  auto body = loop_body_statements(*loop);
  auto deps = static_loop_dependences(body, *f.effects, f.method("A", "F"));
  bool self_carried = false;
  for (const Dep& d : deps) {
    if (d.kind == DepKind::True && d.carried && d.from_id == d.to_id)
      self_carried = true;
  }
  EXPECT_TRUE(self_carried);
}

TEST(StaticDepTest, ForwardChainIsIntraIteration) {
  Fixture f(R"(class A {
    int G(int v) { return v + 1; }
    void F(int[] a) {
      for (int i = 0; i < len(a); i++) {
        int x = a[i];
        int y = G(x);
        print(y);
      }
    }
  })");
  const lang::Stmt* loop = f.first_loop(f.method("A", "F"));
  auto body = loop_body_statements(*loop);
  ASSERT_EQ(body.size(), 3u);
  auto deps = static_loop_dependences(body, *f.effects, f.method("A", "F"));
  // x flows 0 -> 1 and y flows 1 -> 2 as intra-iteration true deps.
  int forward_true = 0;
  for (const Dep& d : deps)
    if (d.kind == DepKind::True && !d.carried) ++forward_true;
  EXPECT_GE(forward_true, 2);
}

TEST(StaticDepTest, TypeBasedAliasingIsPessimistic) {
  // Static analysis cannot distinguish two different int[] objects: it must
  // report a (spurious) carried dependence. This is exactly the
  // overapproximation the paper's optimistic dynamic analysis removes.
  Fixture f(R"(class A { void F(int[] src, int[] dst) {
    for (int i = 1; i < len(src); i++) {
      dst[i] = src[i - 1];
    }
  } })");
  const lang::Stmt* loop = f.first_loop(f.method("A", "F"));
  auto body = loop_body_statements(*loop);
  auto deps = static_loop_dependences(body, *f.effects, f.method("A", "F"));
  bool carried = false;
  for (const Dep& d : deps)
    if (d.carried) carried = true;
  EXPECT_TRUE(carried);
}

TEST(StaticDepTest, LoopBodyStatementsSkipsAnnotations) {
  Fixture f(R"(class A { void F() {
    for (int i = 0; i < 3; i++) {
      @tadl A
      print(i);
      @end
    }
  } })");
  const lang::Stmt* loop = f.first_loop(f.method("A", "F"));
  auto body = loop_body_statements(*loop);
  EXPECT_EQ(body.size(), 1u);
}

TEST(StaticDepTest, OwningBodyStatementFindsNestedIds) {
  Fixture f(R"(class A { void F(int n) {
    for (int i = 0; i < n; i++) {
      if (i > 0) { print(i); }
      print(n);
    }
  } })");
  const lang::Stmt* loop = f.first_loop(f.method("A", "F"));
  auto body = loop_body_statements(*loop);
  ASSERT_EQ(body.size(), 2u);
  // The print(i) nested inside the if belongs to body[0].
  const auto& if_stmt = body[0]->as<lang::If>();
  const lang::Stmt* nested = if_stmt.then_branch->as<lang::Block>().stmts[0].get();
  EXPECT_EQ(owning_body_statement(body, nested->id), body[0]->id);
  EXPECT_EQ(owning_body_statement(body, body[1]->id), body[1]->id);
  EXPECT_EQ(owning_body_statement(body, 999999), -1);
}

}  // namespace
}  // namespace patty::analysis
