#pragma once
// Instrumentation interface for the interpreter. The dynamic-analysis phase
// of the paper's process model (runtime shares, observed dependences, loop
// trip counts, branch outcomes for path coverage) is implemented as Tracer
// subclasses; plain execution passes no tracer and pays no cost. One thread
// drives a tracer: a traced run is sequential (only the untraced plan
// executor runs statements on several threads), so a tracer needs no
// synchronisation of its own.

#include <cstdint>

#include "lang/ast.hpp"

namespace patty::analysis {

/// One concrete memory cell at runtime. Its identity is the allocation it
/// lives in, not that allocation's address: while a tracer is attached the
/// interpreter stamps every call frame, object, array and list with a
/// serial that is never reused, so a temporary freed in one iteration and
/// reallocated at the same address in a later one is a different cell.
/// `base` is where the allocation lives. A tracer may key its cell table by
/// address to keep the table as small as the heap: two live allocations
/// never share an address, so a changed serial at a known address means the
/// earlier occupant is dead.
struct MemLoc {
  enum class Kind : std::uint8_t { Local, Field, Element };
  Kind kind = Kind::Local;
  const void* base = nullptr;  // frame / object / array / list address
  std::uint64_t alloc = 0;     // its serial (0: the output stream)
  std::int64_t index = 0;      // slot, field index, or element index
};

class Tracer {
 public:
  virtual ~Tracer() = default;

  /// A statement begins executing; `cost` is its deterministic cost-model
  /// charge (1 for ordinary statements; work(n) adds n via on_work).
  virtual void on_stmt(const lang::Stmt& stmt) { (void)stmt; }

  /// Extra deterministic cost attributed to the current statement.
  virtual void on_work(std::uint64_t cost) { (void)cost; }

  /// A concrete memory cell was read/written while `stmt` executed.
  virtual void on_read(const MemLoc& loc, const lang::Stmt& stmt) {
    (void)loc;
    (void)stmt;
  }
  virtual void on_write(const MemLoc& loc, const lang::Stmt& stmt) {
    (void)loc;
    (void)stmt;
  }

  /// Loop iteration boundaries (loop = the For/While/Foreach statement).
  virtual void on_loop_enter(const lang::Stmt& loop) { (void)loop; }
  virtual void on_loop_iteration(const lang::Stmt& loop, std::int64_t iter) {
    (void)loop;
    (void)iter;
  }
  virtual void on_loop_exit(const lang::Stmt& loop) { (void)loop; }

  /// Branch outcome of an If statement (for path-coverage input synthesis).
  virtual void on_branch(const lang::Stmt& if_stmt, bool taken) {
    (void)if_stmt;
    (void)taken;
  }

  /// Method call/return events (for the dynamic call graph).
  virtual void on_call(const lang::MethodDecl& callee,
                       const lang::Stmt* call_site) {
    (void)callee;
    (void)call_site;
  }
  virtual void on_return(const lang::MethodDecl& callee) { (void)callee; }
};

}  // namespace patty::analysis
