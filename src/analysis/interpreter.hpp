#pragma once
// Tree-walking interpreter for MiniOO.
//
// Two roles:
//  1. Dynamic analysis substrate: executed with a Tracer it produces the
//     runtime half of the paper's semantic model (profiles, observed
//     dependences, trip counts, branch coverage).
//  2. Execution engine for transformed parallel programs: the runtime
//     library's pipeline stages call back into exec_stmt() concurrently.
//     The interpreter itself keeps no mutable global state — all mutable
//     state lives in the Frame and in the program's heap values — so
//     concurrent execution is safe exactly when the executed program is
//     data-race-free (which is what detection + CHESS-style testing verify,
//     mirroring the paper's optimistic-parallelization stance).

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/tracer.hpp"
#include "analysis/value.hpp"
#include "lang/ast.hpp"

namespace patty::analysis {

/// Raised for runtime errors (null deref, bad index, step-limit exceeded...).
struct RuntimeError {
  std::string message;
  SourceRange range;
};

/// One method activation: `self` plus the local slot array.
struct Frame {
  Value self_value;  // object the method runs on (null for synthetic frames)
  std::vector<Value> locals;
  Value return_value;
  std::uint64_t serial = 0;  // allocation serial of the locals (MemLoc)

  [[nodiscard]] Object* self() const {
    return self_value.is_object() ? self_value.as_object() : nullptr;
  }
};

/// How a statement finished — drives break/continue/return propagation.
enum class ExecSignal : std::uint8_t { Normal, Break, Continue, Return };

struct InterpreterOptions {
  /// Abort with RuntimeError after this many statement executions
  /// (guards against non-terminating inputs during dynamic analysis).
  /// Exact for a run on one thread; threads that share the interpreter
  /// draw on the one budget and together never run more.
  std::uint64_t max_steps = 200'000'000;
};

class Interpreter;

/// Hook that lets the transformation phase take over execution of selected
/// statements: the parallel plan executor intercepts detected loops and runs
/// them on the parallel runtime library instead of the sequential
/// interpreter. Must be re-entrant (stage workers execute statements
/// concurrently through the same interpreter).
class StmtInterceptor {
 public:
  virtual ~StmtInterceptor() = default;
  /// Return true if the statement was fully handled; `*signal` then tells
  /// the interpreter how the statement completed.
  virtual bool intercept(const lang::Stmt& st, Frame& frame,
                         Interpreter& interp, ExecSignal* signal) = 0;
};

class Interpreter {
 public:
  using Options = InterpreterOptions;

  explicit Interpreter(const lang::Program& program, Tracer* tracer = nullptr,
                       Options options = {});

  /// Find the single class that declares `main()`, instantiate it and run.
  Value run_main();

  /// Instantiate a class (runs `init` if present).
  Value instantiate(const lang::ClassDecl& cls, std::vector<Value> args);

  /// Call a method on an object value.
  Value call(const lang::MethodDecl& method, Value self,
             std::vector<Value> args, const lang::Stmt* call_site = nullptr);

  /// Execute one statement in an existing frame (used by the parallel plan
  /// executor, which owns frames per pipeline element).
  ExecSignal exec_stmt(const lang::Stmt& st, Frame& frame);

  /// Evaluate one expression in an existing frame.
  Value eval(const lang::Expr& e, Frame& frame);

  /// Install (or clear) the statement interceptor.
  void set_interceptor(StmtInterceptor* interceptor) {
    interceptor_ = interceptor;
  }

  /// Everything print() produced, in order.
  [[nodiscard]] std::string output() const;
  void clear_output();

  const lang::Program& program() const { return program_; }

 private:
  Value eval_binary(const lang::Binary& b, Frame& frame);
  Value eval_call(const lang::Call& c, Frame& frame);
  Value eval_builtin(const lang::Call& c, Frame& frame);
  void assign_to(const lang::Expr& target, Value value, Frame& frame);
  /// The slot a variable names (a local, or a field of `this`), read in
  /// place: the caller copies it only where the value must outlive code
  /// that could reassign the variable.
  const Value& variable(const lang::VarRef& ref, const Frame& frame,
                        SourceRange range);
  std::int64_t check_index(const Value& container, const Value& index,
                           SourceRange range) const;
  void charge(const lang::Stmt& st);
  /// Refill the calling thread's step claim from the budget, or throw the
  /// step-limit error once the budget is spent.
  void claim_steps(const lang::Stmt& st);
  /// A fresh allocation serial while a tracer is attached, else 0. Only a
  /// traced run stamps, and one thread drives it.
  std::uint64_t stamp() { return tracer_ ? next_serial_++ : 0; }
  [[noreturn]] void error(SourceRange range, std::string message) const;

  void trace_read(const MemLoc& loc) {
    if (tracer_ && current_stmt_) tracer_->on_read(loc, *current_stmt_);
  }
  void trace_write(const MemLoc& loc) {
    if (tracer_ && current_stmt_) tracer_->on_write(loc, *current_stmt_);
  }

  const lang::Program& program_;
  Tracer* tracer_;
  StmtInterceptor* interceptor_ = nullptr;
  // Identifies this interpreter's step claims on each thread; never reused.
  const std::uint64_t id_;
  // Steps of max_steps no thread has claimed yet. Each thread claims up to
  // kStepClaim at a time and charges its statements from that claim, so the
  // threads of a parallel region share no counter per statement.
  std::atomic<std::uint64_t> unclaimed_steps_;
  // Serial 0 is the output stream's cell; allocations start at 1.
  std::uint64_t next_serial_ = 1;
  // The statement a traced run attributes reads, writes and call sites to.
  // Only a traced run sets it, but every call() saves and restores it
  // around the callee's body, the plan executor's threads included, so it
  // is thread-local rather than a member those threads would share.
  static thread_local const lang::Stmt* current_stmt_;

  mutable std::mutex output_mutex_;
  std::string output_;
};

}  // namespace patty::analysis
