#pragma once
// Dynamic-analysis tracer: the runtime half of the paper's semantic model.
// One profiled execution yields, per statement, execution counts and
// inclusive cost (runtime share), and per loop, trip counts plus the
// *observed* data dependences (optimistic: only dependences that actually
// occurred under the given input data). Branch outcomes feed the
// path-coverage input synthesis for generated parallel unit tests.

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "analysis/dependence.hpp"
#include "analysis/tracer.hpp"
#include "lang/ast.hpp"

namespace patty::analysis {

/// Each trace event does constant work, but for a recorded dependence's
/// call-chain walk (below). It allocates only to grow a table or pool past
/// its high-water mark (a new cell, dependence, live loop context or call
/// depth):
///  - Per-statement counters live in dense arrays over a compact statement
///    index, built once at construction from every method.
///  - Inclusive cost comes from open intervals. A statement is open while
///    it is an ancestor-or-self of the current statement or of a call site
///    on the stack. A charge only advances the running total; closing a
///    statement adds what the total gained while it was open. Moving the
///    current statement walks to the common ancestor (usually 1-2 steps), a
///    call opens its site's chain and the return closes it. That equals
///    charging the deduplicated union of those chains on every event,
///    recursion included.
///  - An access holds a reference to the immutable (loop, iteration) node
///    that was current when it happened, and a dependence compares two node
///    chains root-first. Nodes are reference-counted and pooled, so one
///    lives only while an access or an inner loop refers to it.
///  - An access also holds its chain of call sites, pooled the same way,
///    and a loop node the call depth of the frame that runs its loop. Each
///    loop records a dependence between statements of its own method: an
///    access in a callee stands as the call site by which it left the
///    loop's frame, found by walking the chain (O(call depth)). A call
///    without a site (a constructor run by `new`) drops the dependence.
///  - One hash map from a cell to its last reader and last writer, and one
///    flat map of dependence accumulators, sorted once when folded.
///
/// Ownership (DESIGN.md, "Shared-state rules"): one thread traces, as with
/// every Tracer, so the profiler takes no lock. Once the traced run has
/// returned, that thread calls finish(), which builds the loop and branch
/// tables. From then on the profile is immutable: any number of threads may
/// read it (daemon workers share a cached model's profile), and no reader
/// writes. stmt_profile(), runtime_share(), total_cost() and call_count()
/// read the trace state itself; loop_profile() and branches() are valid
/// after finish().
class Profiler : public Tracer {
 public:
  explicit Profiler(const lang::Program& program);
  ~Profiler() override;

  // Tracer interface -------------------------------------------------------
  void on_stmt(const lang::Stmt& stmt) override;
  void on_work(std::uint64_t cost) override;
  void on_read(const MemLoc& loc, const lang::Stmt& stmt) override;
  void on_write(const MemLoc& loc, const lang::Stmt& stmt) override;
  void on_loop_enter(const lang::Stmt& loop) override;
  void on_loop_iteration(const lang::Stmt& loop, std::int64_t iter) override;
  void on_loop_exit(const lang::Stmt& loop) override;
  void on_branch(const lang::Stmt& if_stmt, bool taken) override;
  void on_call(const lang::MethodDecl& callee,
               const lang::Stmt* call_site) override;
  void on_return(const lang::MethodDecl& callee) override;

  /// Folds the trace into the loop and branch tables. Call it once, on the
  /// tracing thread, after the traced run and before sharing the profile.
  void finish();

  // Results ----------------------------------------------------------------
  struct StmtProfile {
    std::uint64_t exec_count = 0;
    std::uint64_t inclusive_cost = 0;  // own + nested + callees
  };

  struct LoopProfile {
    const lang::Stmt* loop = nullptr;
    std::uint64_t entries = 0;
    std::uint64_t total_iterations = 0;
    /// Observed dependences, deduplicated; distance is the minimum seen.
    std::vector<Dep> deps;
  };

  struct BranchProfile {
    const lang::Stmt* if_stmt = nullptr;
    std::uint64_t taken = 0;
    std::uint64_t not_taken = 0;
  };

  [[nodiscard]] StmtProfile stmt_profile(int stmt_id) const;
  [[nodiscard]] std::uint64_t total_cost() const { return total_cost_; }
  /// Fraction of total cost attributed to this statement (inclusive).
  [[nodiscard]] double runtime_share(int stmt_id) const;
  /// Loop profile, or nullptr if the loop never executed.
  [[nodiscard]] const LoopProfile* loop_profile(int loop_stmt_id) const;
  /// Every executed branch, by the id of its If statement.
  [[nodiscard]] const std::map<int, BranchProfile>& branches() const {
    return branches_;
  }
  [[nodiscard]] std::uint64_t call_count(const lang::MethodDecl* m) const;

  /// Heap bytes held by the profile: every structure the tracer keeps.
  [[nodiscard]] std::size_t memory_footprint() const;

 private:
  struct Trace;  // structural trace state (profiler.cpp)

  std::unique_ptr<Trace> trace_;
  std::uint64_t total_cost_ = 0;
  // Built by finish().
  std::map<int, LoopProfile> loops_;
  std::map<int, BranchProfile> branches_;
};

}  // namespace patty::analysis
