#pragma once
// The paper's semantic model: "the cross product from the control flow
// graph, the data dependencies, the call graph, and runtime information"
// (§2.1). This facade builds all four for a program, runs the dynamic
// analysis, and answers the queries the pattern detectors need.

#include <memory>
#include <mutex>
#include <optional>

#include "analysis/callgraph.hpp"
#include "analysis/cfg.hpp"
#include "analysis/dependence.hpp"
#include "analysis/effects.hpp"
#include "analysis/interpreter.hpp"
#include "analysis/profiler.hpp"
#include "lang/ast.hpp"
#include "support/arena.hpp"

namespace patty::analysis {

/// A loop (For/While/Foreach) located inside a method.
struct LoopInfo {
  const lang::Stmt* loop = nullptr;
  const lang::MethodDecl* method = nullptr;
  int depth = 0;  // nesting depth within the method (0 = outermost)
};

struct SemanticModelOptions {
  /// Execute the program's main() under the profiler (dynamic half).
  bool run_dynamic = true;
};

class SemanticModel {
 public:
  using Options = SemanticModelOptions;

  /// Build the full model. The program must be sema-checked.
  /// Throws RuntimeError if dynamic analysis is requested and execution
  /// fails (callers may retry with run_dynamic = false).
  static std::unique_ptr<SemanticModel> build(const lang::Program& program,
                                              Options options = {});

  const lang::Program& program() const { return *program_; }
  const CallGraph& call_graph() const { return call_graph_; }
  const EffectAnalysis& effects() const { return *effects_; }
  /// CFG of a method (built on demand, cached).
  const Cfg& cfg(const lang::MethodDecl& method) const;
  /// Dynamic profile; nullptr when run_dynamic was false.
  const Profiler* profile() const { return profiler_.get(); }

  /// All loops in the program, outermost-first per method.
  const std::vector<LoopInfo>& loops() const { return loops_; }

  /// Dependences among the top-level body statements of a loop:
  /// observed (dynamic) if the loop executed under profiling, otherwise the
  /// pessimistic static set. `optimistic` false forces the static set.
  /// Memoized per (loop, mode): repeated detector queries — data-parallel
  /// then pipeline matching both ask — compute once; the returned
  /// reference is stable for the model's lifetime. Thread-safe (the model
  /// is immutable after build, so entries never invalidate).
  const std::vector<Dep>& loop_dependences(const lang::Stmt& loop,
                                           bool optimistic = true) const;

  /// True when the loop executed at least one iteration under profiling.
  bool loop_was_profiled(const lang::Stmt& loop) const;

  /// Inclusive runtime share of a statement, 0 if no dynamic info.
  double runtime_share(const lang::Stmt& st) const;

  /// Look up a statement by id anywhere in the program (null for an
  /// expression's id). Both lookups throw std::out_of_range for an id
  /// outside the program the model was built from.
  const lang::Stmt* stmt_by_id(int id) const;
  /// The method whose body (transitively) contains the statement.
  const lang::MethodDecl* method_of(const lang::Stmt& st) const;

  /// Bytes the model's side-structure arena has reserved (CFG cache +
  /// dependence memo). Grows monotonically as lazy caches fill; the
  /// service model cache samples it for footprint accounting.
  [[nodiscard]] std::size_t side_bytes_reserved() const {
    std::scoped_lock lock(cfg_mutex_, dep_cache_mutex_);
    return arena_.bytes_reserved();
  }

  /// Heap bytes the model holds: the side arena, the profile, the effect
  /// summaries, the call graph, the loop list and the statement maps. The
  /// AST is the program's, not the model's.
  [[nodiscard]] std::size_t memory_footprint() const;

 private:
  SemanticModel() = default;
  void collect_loops();
  std::vector<Dep> compute_loop_dependences(const lang::Stmt& loop,
                                            bool optimistic) const;

  // Declared first so it outlives everything placed in it: cached CFGs and
  // memoized dependence vectors live in this arena (one chunk-list drop
  // reclaims the model's side structures when it dies). Arena allocation is
  // serialized under the respective cache mutex.
  mutable support::Arena arena_;

  const lang::Program* program_ = nullptr;
  CallGraph call_graph_;
  std::unique_ptr<EffectAnalysis> effects_;
  std::unique_ptr<Profiler> profiler_;
  std::vector<LoopInfo> loops_;
  // Indexed by node id; null where the id is an expression's.
  std::vector<const lang::Stmt*> stmt_by_id_;
  std::vector<const lang::MethodDecl*> method_by_stmt_id_;
  mutable std::mutex cfg_mutex_;
  // Values are arena-placed; the ArenaPtr runs ~Cfg (inner vectors own
  // heap) while the arena keeps the bytes. Pointer values mean references
  // handed out stay stable across rehashes.
  mutable std::unordered_map<const lang::MethodDecl*, support::ArenaPtr<Cfg>>
      cfg_cache_;
  // Dependence memo, keyed (loop id << 1) | optimistic. Never invalidated:
  // the program, effects and profile are frozen once build() returns
  // (see DESIGN.md "Self-hosted front-end" on cache invalidation).
  mutable std::mutex dep_cache_mutex_;
  mutable std::unordered_map<std::uint64_t, support::ArenaPtr<std::vector<Dep>>>
      dep_cache_;
};

}  // namespace patty::analysis
