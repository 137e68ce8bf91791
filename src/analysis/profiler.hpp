#pragma once
// Dynamic-analysis tracer: the runtime half of the paper's semantic model.
// One profiled execution yields, per statement, execution counts and
// inclusive cost (runtime share), and per loop, trip counts plus the
// *observed* data dependences (optimistic: only dependences that actually
// occurred under the given input data). Branch outcomes feed the
// path-coverage input synthesis for generated parallel unit tests.

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
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
/// Thread-safety contract (DESIGN.md, "Shared-state rules"):
///  - Every trace event takes one internal mutex, so tracing from several
///    threads (stage workers sharing one interpreter) is TSan-clean and
///    every count stays exact.
///  - stmt_profile(), runtime_share(), total_cost() and call_count() may be
///    called while tracing runs: a statement's counters are read under the
///    mutex into its stable result slot, open interval included.
///  - loops(), loop_profile(), branches() and memory_footprint() fold the
///    whole profile once, by the first of them after tracing
///    (SemanticModel::build triggers it right after its run). The fold is
///    double-checked, so concurrent readers take no lock once it is done,
///    but it must not overlap tracing — finish (join) tracing first.
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

  // Results ----------------------------------------------------------------
  struct StmtProfile {
    std::atomic<std::uint64_t> exec_count{0};
    std::atomic<std::uint64_t> inclusive_cost{0};  // own + nested + callees
  };

  struct LoopProfile {
    const lang::Stmt* loop = nullptr;
    std::uint64_t entries = 0;
    std::uint64_t total_iterations = 0;
    /// Observed dependences, deduplicated; distance is the minimum seen.
    std::vector<Dep> deps;
  };

  struct BranchProfile {
    std::uint64_t taken = 0;
    std::uint64_t not_taken = 0;
  };

  [[nodiscard]] const StmtProfile& stmt_profile(int stmt_id) const;
  [[nodiscard]] std::uint64_t total_cost() const {
    return total_cost_.load(std::memory_order_relaxed);
  }
  /// Fraction of total cost attributed to this statement (inclusive).
  [[nodiscard]] double runtime_share(int stmt_id) const;
  /// Loop profile, or nullptr if the loop never executed.
  [[nodiscard]] const LoopProfile* loop_profile(int loop_stmt_id) const;
  [[nodiscard]] const std::map<int, LoopProfile>& loops() const {
    finalize();
    return loops_;
  }
  [[nodiscard]] const std::map<int, BranchProfile>& branches() const {
    finalize();
    return branches_;
  }
  [[nodiscard]] std::uint64_t call_count(const lang::MethodDecl* m) const;

  /// Heap bytes held by the profile: every structure the tracer keeps.
  [[nodiscard]] std::size_t memory_footprint() const;

 private:
  struct Trace;  // structural trace state (profiler.cpp)

  /// Fold trace state into the result fields; idempotent, double-checked.
  void finalize() const;

  // Guarded by trace_mutex_, but for its statement index, which is fixed at
  // construction and read without the lock.
  std::unique_ptr<Trace> trace_;
  mutable std::mutex trace_mutex_;
  std::atomic<std::uint64_t> total_cost_{0};

  // Results, rebuilt in place under trace_mutex_: stmt_profiles_ by
  // stmt_profile() and finalize(), the maps by finalize() alone.
  mutable std::vector<StmtProfile> stmt_profiles_;  // by compact index
  mutable std::map<int, LoopProfile> loops_;
  mutable std::map<int, BranchProfile> branches_;
  mutable std::atomic<bool> dirty_{false};
};

}  // namespace patty::analysis
