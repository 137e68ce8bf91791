// Tests for the dynamic-analysis profiler and the SemanticModel facade:
// execution counts, inclusive cost / runtime shares, loop trip counts,
// observed dependences (optimistic), and branch coverage.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "analysis/semantic_model.hpp"
#include "corpus/corpus.hpp"
#include "lang/sema.hpp"

namespace patty::analysis {
namespace {

struct Model {
  DiagnosticSink diags;
  std::unique_ptr<lang::Program> program;
  std::unique_ptr<SemanticModel> model;

  explicit Model(std::string_view src, bool dynamic = true) {
    program = lang::parse_and_check(src, diags);
    EXPECT_TRUE(program) << diags.to_string();
    SemanticModelOptions opts;
    opts.run_dynamic = dynamic;
    model = SemanticModel::build(*program, opts);
  }

  const lang::MethodDecl* method(const std::string& cls,
                                 const std::string& name) const {
    return program->find_class(cls)->find_method(name);
  }
};

TEST(ProfilerTest, ExecutionCounts) {
  Model m(R"(class Main { void main() {
    for (int i = 0; i < 5; i++) { print(i); }
  } })");
  const auto& loop = m.method("Main", "main")->body->stmts[0]->as<lang::For>();
  const lang::Stmt* body_print = loop.body->as<lang::Block>().stmts[0].get();
  EXPECT_EQ(m.model->profile()->stmt_profile(body_print->id).exec_count, 5u);
}

TEST(ProfilerTest, LoopTripCount) {
  Model m(R"(class Main { void main() {
    for (int i = 0; i < 7; i++) { int x = i; }
  } })");
  const lang::Stmt* loop = m.method("Main", "main")->body->stmts[0].get();
  const Profiler::LoopProfile* p = m.model->profile()->loop_profile(loop->id);
  ASSERT_TRUE(p);
  EXPECT_EQ(p->entries, 1u);
  EXPECT_EQ(p->total_iterations, 7u);
}

TEST(ProfilerTest, InclusiveCostCoversCallees) {
  Model m(R"(class Main {
    int heavy() { return work(1000); }
    int light() { return work(10); }
    void main() { heavy(); light(); }
  })");
  const lang::Stmt* call_heavy = m.method("Main", "main")->body->stmts[0].get();
  const lang::Stmt* call_light = m.method("Main", "main")->body->stmts[1].get();
  const double heavy_share = m.model->profile()->runtime_share(call_heavy->id);
  const double light_share = m.model->profile()->runtime_share(call_light->id);
  EXPECT_GT(heavy_share, 0.8);
  EXPECT_LT(light_share, 0.2);
  EXPECT_GT(light_share, 0.0);
}

TEST(ProfilerTest, GoldenCountsAndInclusiveCosts) {
  // Pins the exact accounting the profiler keeps: a statement is charged
  // once per event while it is an ancestor-or-self of the current statement
  // or of any call site on the stack. `rec` re-enters itself through both of
  // its call sites (6 -> 5 -> 2 -> 1 -> -2), so its statements sit on the
  // stack twice at once and must still be charged once.
  //
  // It also pins a known misattribution: the current statement is not
  // restored when a call returns, so the work(50) that runs after f()
  // returns, inside `int x = ...`, is charged to f's `return y;` (1 + 50)
  // and not to the declaration (1 + f's two statements).
  Model m(R"(class Main {
  int leaf(int n) {
    work(3);
    return n + 1;
  }
  int mid(int n) {
    int a = leaf(n);
    return a + leaf(a);
  }
  int rec(int n) {
    if (n <= 0) { return work(2); }
    if (n % 2 == 0) { return rec(n - 1) + 1; }
    int r = rec(n - 3);
    return r + leaf(n);
  }
  int f() {
    int y = 7;
    return y;
  }
  void main() {
    int total = 0;
    for (int i = 0; i < 3; i++) {
      total = total + mid(i);
    }
    total = total + rec(6);
    int x = f() + work(50);
    print(total + x);
  }
})");
  struct Expected {
    const char* method;
    std::uint32_t line;
    std::uint64_t exec_count;
    std::uint64_t inclusive_cost;
  };
  // Every statement, in lang::for_each_stmt order.
  const Expected expected[] = {
      {"leaf", 2, 0, 40},   // body
      {"leaf", 3, 8, 32},   // work(3);
      {"leaf", 4, 8, 8},    // return n + 1;
      {"mid", 6, 0, 36},    // body
      {"mid", 7, 3, 18},    // int a = leaf(n);
      {"mid", 8, 3, 18},    // return a + leaf(a);
      {"rec", 10, 0, 28},   // body
      {"rec", 11, 5, 8},    // if (n <= 0)
      {"rec", 11, 0, 3},    //   { ... }
      {"rec", 11, 1, 3},    //   return work(2);
      {"rec", 12, 4, 27},   // if (n % 2 == 0)
      {"rec", 12, 0, 26},   //   { ... }
      {"rec", 12, 2, 26},   //   return rec(n - 1) + 1;
      {"rec", 13, 2, 17},   // int r = rec(n - 3);
      {"rec", 14, 2, 12},   // return r + leaf(n);
      {"f", 16, 0, 52},     // body
      {"f", 17, 1, 1},      // int y = 7;
      {"f", 18, 1, 51},     // return y;  (+ the caller's work(50))
      {"main", 20, 0, 81},  // body
      {"main", 21, 1, 1},   // int total = 0;
      {"main", 22, 4, 47},  // for
      {"main", 22, 1, 1},   //   int i = 0
      {"main", 22, 3, 3},   //   i++
      {"main", 22, 0, 39},  //   { ... }
      {"main", 23, 3, 39},  //   total = total + mid(i);
      {"main", 25, 1, 29},  // total = total + rec(6);
      {"main", 26, 1, 3},   // int x = f() + work(50);
      {"main", 27, 1, 1},   // print(total + x);
  };
  const Profiler& profile = *m.model->profile();
  std::size_t next = 0;
  for (const auto& method : m.program->find_class("Main")->methods) {
    lang::for_each_stmt(*method->body, [&](const lang::Stmt& st) {
      ASSERT_LT(next, std::size(expected));
      const Expected& e = expected[next++];
      SCOPED_TRACE(std::string(e.method) + " line " + std::to_string(e.line));
      EXPECT_EQ(method->name, e.method);
      EXPECT_EQ(st.range.begin.line, e.line);
      EXPECT_EQ(profile.stmt_profile(st.id).exec_count, e.exec_count);
      EXPECT_EQ(profile.stmt_profile(st.id).inclusive_cost, e.inclusive_cost);
    });
  }
  EXPECT_EQ(next, std::size(expected));
  EXPECT_EQ(profile.total_cost(), 131u);
  EXPECT_EQ(profile.call_count(m.method("Main", "leaf")), 8u);
  EXPECT_EQ(profile.call_count(m.method("Main", "mid")), 3u);
  EXPECT_EQ(profile.call_count(m.method("Main", "rec")), 5u);
  EXPECT_EQ(profile.call_count(m.method("Main", "f")), 1u);
  EXPECT_EQ(profile.call_count(m.method("Main", "main")), 1u);
}

/// The statement accounting the profiler must reproduce, done the slow way:
/// every charge walks the parent chain of the current statement and of each
/// call site on the stack, and charges each statement on them once.
class ChainWalkProfile : public Tracer {
 public:
  explicit ChainWalkProfile(const lang::Program& program) {
    for (const auto& cls : program.classes)
      for (const auto& m : cls->methods)
        lang::for_each_stmt(*m->body, [this](const lang::Stmt& st) {
          for_each_child(st, [this, &st](const lang::Stmt& child) {
            parent_[child.id] = st.id;
          });
        });
  }

  void on_stmt(const lang::Stmt& stmt) override {
    ++exec_count[stmt.id];
    current_ = stmt.id;
    charge(1);
  }
  void on_work(std::uint64_t cost) override { charge(cost); }
  void on_call(const lang::MethodDecl&, const lang::Stmt* site) override {
    call_sites_.push_back(site ? site->id : -1);
  }
  void on_return(const lang::MethodDecl&) override { call_sites_.pop_back(); }

  std::map<int, std::uint64_t> exec_count;
  std::map<int, std::uint64_t> inclusive_cost;
  std::uint64_t total_cost = 0;

 private:
  template <typename Fn>
  static void for_each_child(const lang::Stmt& st, Fn fn) {
    switch (st.kind) {
      case lang::StmtKind::Block:
        for (const auto& child : st.as<lang::Block>().stmts) fn(*child);
        break;
      case lang::StmtKind::If:
        fn(*st.as<lang::If>().then_branch);
        if (st.as<lang::If>().else_branch) fn(*st.as<lang::If>().else_branch);
        break;
      case lang::StmtKind::While:
        fn(*st.as<lang::While>().body);
        break;
      case lang::StmtKind::For:
        if (st.as<lang::For>().init) fn(*st.as<lang::For>().init);
        if (st.as<lang::For>().step) fn(*st.as<lang::For>().step);
        fn(*st.as<lang::For>().body);
        break;
      case lang::StmtKind::Foreach:
        fn(*st.as<lang::Foreach>().body);
        break;
      default:
        break;
    }
  }

  void charge(std::uint64_t amount) {
    total_cost += amount;
    std::set<int> charged;
    const auto charge_chain = [&](int id) {
      for (; id >= 0; id = parent_.count(id) ? parent_[id] : -1)
        if (charged.insert(id).second) inclusive_cost[id] += amount;
    };
    charge_chain(current_);
    for (int site : call_sites_) charge_chain(site);
  }

  std::map<int, int> parent_;
  int current_ = -1;
  std::vector<int> call_sites_;
};

TEST(ProfilerTest, InclusiveCostsMatchChainWalkOnCorpus) {
  // The open-interval accounting must equal the per-event chain walk on
  // real programs: the handwritten corpus and a slice of the synthetic one.
  std::vector<corpus::CorpusProgram> programs =
      corpus::synthetic_suite(12, 20150207);
  for (const corpus::CorpusProgram* p : corpus::handwritten())
    programs.push_back(*p);
  for (const corpus::CorpusProgram& source : programs) {
    SCOPED_TRACE(source.name);
    DiagnosticSink diags;
    const auto program = lang::parse_and_check(source.source, diags);
    ASSERT_TRUE(program) << diags.to_string();
    Profiler profile(*program);
    Interpreter(*program, &profile).run_main();
    ChainWalkProfile reference(*program);
    Interpreter(*program, &reference).run_main();
    EXPECT_EQ(profile.total_cost(), reference.total_cost);
    for (const auto& cls : program->classes)
      for (const auto& m : cls->methods)
        lang::for_each_stmt(*m->body, [&](const lang::Stmt& st) {
          EXPECT_EQ(profile.stmt_profile(st.id).exec_count,
                    reference.exec_count[st.id])
              << "s" << st.id;
          EXPECT_EQ(profile.stmt_profile(st.id).inclusive_cost,
                    reference.inclusive_cost[st.id])
              << "s" << st.id;
        });
  }
}

TEST(ProfilerTest, RuntimeShareOfHotLoop) {
  Model m(R"(class Main {
    void main() {
      for (int i = 0; i < 10; i++) { work(100); }
      work(5);
    }
  })");
  const lang::Stmt* loop = m.method("Main", "main")->body->stmts[0].get();
  EXPECT_GT(m.model->runtime_share(*loop), 0.9);
}

TEST(ProfilerTest, BranchCoverage) {
  Model m(R"(class Main { void main() {
    for (int i = 0; i < 10; i++) {
      if (i % 2 == 0) { print(i); }
    }
  } })");
  const auto& branches = m.model->profile()->branches();
  ASSERT_EQ(branches.size(), 1u);
  EXPECT_EQ(branches.begin()->second.taken, 5u);
  EXPECT_EQ(branches.begin()->second.not_taken, 5u);
}

TEST(ProfilerTest, CallCounts) {
  Model m(R"(class Main {
    int f() { return 1; }
    void main() { for (int i = 0; i < 3; i++) { f(); } }
  })");
  EXPECT_EQ(m.model->profile()->call_count(m.method("Main", "f")), 3u);
}

TEST(ProfilerTest, ObservedDepsDistinguishDisjointArrays) {
  // The static analysis reports a spurious carried dependence between two
  // int[] objects; the dynamic profile must NOT (optimistic analysis).
  // The shifted read subscript keeps the loop outside the
  // induction-uniform refinement, so the static side stays conservative.
  Model m(R"(class Main {
    void main() {
      int[] src = new int[10];
      int[] dst = new int[10];
      for (int i = 0; i < 9; i++) {
        dst[i] = src[i + 1] + 1;
      }
    }
  })");
  const lang::Stmt* loop = m.method("Main", "main")->body->stmts[2].get();
  ASSERT_EQ(loop->kind, lang::StmtKind::For);
  auto optimistic = m.model->loop_dependences(*loop, /*optimistic=*/true);
  for (const Dep& d : optimistic) EXPECT_FALSE(d.carried) << d.str();
  auto pessimistic = m.model->loop_dependences(*loop, /*optimistic=*/false);
  bool any_carried = false;
  for (const Dep& d : pessimistic) any_carried |= d.carried;
  EXPECT_TRUE(any_carried);
}

TEST(ProfilerTest, ObservedCarriedDependenceOnRealRecurrence) {
  Model m(R"(class Main {
    void main() {
      int[] a = new int[10];
      for (int i = 1; i < 10; i++) {
        a[i] = a[i - 1] + 1;
      }
      print(a[9]);
    }
  })");
  const lang::Stmt* loop = m.method("Main", "main")->body->stmts[1].get();
  auto deps = m.model->loop_dependences(*loop, /*optimistic=*/true);
  bool carried_true = false;
  for (const Dep& d : deps) {
    if (d.kind == DepKind::True && d.carried) {
      carried_true = true;
      EXPECT_EQ(d.distance, 1);
    }
  }
  EXPECT_TRUE(carried_true);
}

TEST(ProfilerTest, ObservedDistanceTwoRecurrence) {
  Model m(R"(class Main {
    void main() {
      int[] a = new int[12];
      a[0] = 1; a[1] = 1;
      for (int i = 2; i < 12; i++) {
        a[i] = a[i - 2];
      }
      print(a[11]);
    }
  })");
  const lang::Stmt* loop = m.method("Main", "main")->body->stmts[3].get();
  auto deps = m.model->loop_dependences(*loop, /*optimistic=*/true);
  bool found = false;
  for (const Dep& d : deps) {
    if (d.kind == DepKind::True && d.carried) {
      EXPECT_EQ(d.distance, 2);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ProfilerTest, AppendsToSameListAreCarriedConflicts) {
  Model m(R"(class Main {
    void main() {
      list<int> out = new list<int>();
      for (int i = 0; i < 5; i++) {
        push(out, i);
      }
      print(len(out));
    }
  })");
  const lang::Stmt* loop = m.method("Main", "main")->body->stmts[1].get();
  auto deps = m.model->loop_dependences(*loop, /*optimistic=*/true);
  bool carried_output_self = false;
  for (const Dep& d : deps) {
    if (d.kind == DepKind::Output && d.carried && d.from_id == d.to_id)
      carried_output_self = true;
  }
  EXPECT_TRUE(carried_output_self);
}

TEST(ProfilerTest, CalleeAppendIsCarriedAtItsCallSite) {
  // The push runs in a callee; the loop sees it as its call statement, so
  // the append's carried output dependence reaches the loop body.
  Model m(R"(class Sink {
    list<int> out;
    void init() { out = new list<int>(); }
    void Add(int v) { push(out, v); }
  }
  class Main {
    void main() {
      Sink sink = new Sink();
      for (int i = 0; i < 5; i++) {
        int v = i * 2;
        sink.Add(v);
      }
      print(len(sink.out));
    }
  })");
  const lang::Stmt* loop = m.method("Main", "main")->body->stmts[1].get();
  ASSERT_EQ(loop->kind, lang::StmtKind::For);
  const int call = loop->as<lang::For>().body->as<lang::Block>().stmts[1]->id;
  bool carried_at_call = false;
  for (const Dep& d : m.model->loop_dependences(*loop, /*optimistic=*/true))
    if (d.kind == DepKind::Output && d.carried && d.from_id == call &&
        d.to_id == call)
      carried_at_call = true;
  EXPECT_TRUE(carried_at_call);
}

TEST(ProfilerTest, CalleeWritesToFreshObjectsAreNotCarried) {
  // Each iteration's callee writes a field of that iteration's own object:
  // lifting the accesses to the call sites must not invent a carried
  // dependence.
  Model m(R"(class Box {
    int v;
    void Set(int x) { v = x; }
    int Get() { return v; }
  }
  class Main {
    void main() {
      int[] out = new int[5];
      for (int i = 0; i < 5; i++) {
        Box b = new Box();
        b.Set(i);
        out[i] = b.Get();
      }
      print(out[4]);
    }
  })");
  const lang::Stmt* loop = m.method("Main", "main")->body->stmts[1].get();
  ASSERT_EQ(loop->kind, lang::StmtKind::For);
  const auto& body = loop->as<lang::For>().body->as<lang::Block>().stmts;
  bool set_to_get = false;
  for (const Dep& d : m.model->loop_dependences(*loop, /*optimistic=*/true)) {
    EXPECT_FALSE(d.carried) << d.str();
    set_to_get |= d.kind == DepKind::True && d.from_id == body[1]->id &&
                  d.to_id == body[2]->id;
  }
  EXPECT_TRUE(set_to_get);  // the field flows from Set's call to Get's
}

TEST(ProfilerTest, LoopsDiscoveredWithNesting) {
  Model m(R"(class Main {
    void main() {
      for (int i = 0; i < 2; i++) {
        for (int j = 0; j < 2; j++) { print(i + j); }
      }
      while (false) { }
    }
  })",
          /*dynamic=*/false);
  ASSERT_EQ(m.model->loops().size(), 3u);
  EXPECT_EQ(m.model->loops()[0].depth, 0);
  EXPECT_EQ(m.model->loops()[1].depth, 1);
  EXPECT_EQ(m.model->loops()[2].depth, 0);
}

TEST(ProfilerTest, StaticFallbackWhenLoopNotExecuted) {
  Model m(R"(class Main {
    void main() {
      int[] a = new int[10];
      if (len(a) > 100) {
        for (int i = 1; i < 10; i++) { a[i] = a[i - 1]; }
      }
    }
  })");
  // Find the for loop (never executed).
  const lang::Stmt* loop = nullptr;
  for (const LoopInfo& li : m.model->loops()) loop = li.loop;
  ASSERT_TRUE(loop);
  EXPECT_FALSE(m.model->loop_was_profiled(*loop));
  // Optimistic query falls back to the static (pessimistic) set.
  auto deps = m.model->loop_dependences(*loop, /*optimistic=*/true);
  bool carried = false;
  for (const Dep& d : deps) carried |= d.carried;
  EXPECT_TRUE(carried);
}

TEST(ProfilerTest, MemoryFootprintGrowsWithProgramActivity) {
  Model small(R"(class Main { void main() { print(1); } })");
  Model big(R"(class Main { void main() {
    int[] a = new int[200];
    for (int i = 0; i < 200; i++) { a[i] = i; }
  } })");
  EXPECT_GT(big.model->profile()->memory_footprint(),
            small.model->profile()->memory_footprint());
}

TEST(ProfilerTest, MemoryFootprintDoesNotGrowWithIterationCount) {
  // Each access refers to the loop context it ran in; a context is freed
  // once no cell's last reader or writer refers to it, so the profile of a
  // loop over a fixed set of cells stays the same size however long it runs.
  const auto footprint = [](int iterations) {
    Model m("class Main { void main() {\n"
            "  int[] a = new int[4];\n"
            "  for (int i = 0; i < " + std::to_string(iterations) +
            "; i++) { a[i % 4] = a[(i + 1) % 4] + i; }\n"
            "  print(a[0]);\n"
            "} }");
    return m.model->profile()->memory_footprint();
  };
  EXPECT_EQ(footprint(100), footprint(10000));
}

TEST(SemanticModelTest, StmtByIdAndMethodOf) {
  Model m(R"(class Main { void main() { print(1); } })", /*dynamic=*/false);
  const lang::Stmt* st = m.method("Main", "main")->body->stmts[0].get();
  EXPECT_EQ(m.model->stmt_by_id(st->id), st);
  EXPECT_EQ(m.model->method_of(*st), m.method("Main", "main"));
}

TEST(SemanticModelTest, CfgCacheReturnsSameInstance) {
  Model m("class Main { void main() { print(1); } }", /*dynamic=*/false);
  const Cfg& a = m.model->cfg(*m.method("Main", "main"));
  const Cfg& b = m.model->cfg(*m.method("Main", "main"));
  EXPECT_EQ(&a, &b);
}

}  // namespace
}  // namespace patty::analysis
