#pragma once
// Target pattern transformation, executable form (paper §2.1 phase 2).
//
// The paper transforms annotated C# into code that instantiates its
// parallel runtime library (figure 3d). Here the equivalent artifact is a
// ParallelPlanExecutor: it runs the program through the interpreter but
// intercepts every detected loop and executes it on patty::rt instead —
// pipeline, data-parallel loop (incl. reductions), or master/worker —
// honouring the candidate's tuning parameters from a TuningConfig.
//
// Element model. The loop header becomes the StreamGenerator (paper §2.2
// PLPL): it runs sequentially in the outer frame and snapshots the locals
// into one Frame per stream element. Heap state (objects, arrays, lists) is
// shared across elements through the reference values inside the snapshot —
// exactly the aliasing the dependence analysis reasoned about. Scalar
// loop-carried state in outer locals cannot be expressed this way; the
// region plan (patterns/region_plan) detects it and the executor falls back
// to sequential execution for that loop (the SequentialExecution tuning
// parameter exists for precisely this kind of bail-out), except for
// recognized reductions, which run as parallel-reduce with per-chunk
// identity accumulators. Without a tuning file the same fallback is taken
// by every region the design-time cost model (tuning/model) predicts to
// run slower in parallel at its default knobs; the executor prices each
// region only sequentially and there, with no knob search, and with a
// tuning file it predicts nothing. It builds each candidate's plan once, at
// construction, and every run reads it.

#include <memory>
#include <string>
#include <vector>

#include "analysis/interpreter.hpp"
#include "patterns/candidate.hpp"
#include "runtime/tuning.hpp"

namespace patty::tuning {
struct SpeedupPrediction;
}  // namespace patty::tuning

namespace patty::transform {

/// What one region did over the executor's runs. A gated region's note
/// states its prediction at default knobs; tuning::predict_speedups gives
/// the tuned-best one.
struct PlanReport {
  int loop_stmt_id = -1;
  patterns::PatternKind kind = patterns::PatternKind::Pipeline;
  bool ran_parallel = false;     // false = sequential fallback taken
  std::string note;              // why, when a fallback happened
  std::uint64_t elements = 0;    // stream elements / iterations processed
  std::size_t runs = 0;          // times the loop was entered
};

class ParallelPlanExecutor : public analysis::StmtInterceptor {
 public:
  /// `tuning` may be null: every region then runs at its default knobs,
  /// except where gate_note() runs it sequentially (its report says why).
  /// A tuning file is obeyed as given. Candidates must come from a
  /// detection run over this same program.
  ParallelPlanExecutor(const lang::Program& program,
                       std::vector<patterns::Candidate> candidates,
                       const rt::TuningConfig* tuning = nullptr);
  ~ParallelPlanExecutor() override;

  /// Execute main() with all plans armed. Returns main's result.
  analysis::Value run_main();

  /// Program output of the last run_main().
  [[nodiscard]] std::string output() const;

  [[nodiscard]] std::vector<PlanReport> reports() const;

  // StmtInterceptor:
  bool intercept(const lang::Stmt& st, analysis::Frame& frame,
                 analysis::Interpreter& interp,
                 analysis::ExecSignal* signal) override;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// The gate's verdict on a region run without a tuning file, from its
/// prediction at default knobs on a machine with `hardware_threads`
/// threads: empty where the region runs in parallel, else the note of its
/// PlanReport, e.g. "predicted 0.31x at default knobs: 384 elements x
/// 0.11 us". A region is gated when predicted below 1.0x, and on a single
/// hardware thread, where no region can gain.
std::string gate_note(const tuning::SpeedupPrediction& prediction,
                      int hardware_threads);

/// Derive the default tuning configuration for a set of candidates (all
/// parameters at their defaults) — the artifact written next to the
/// transformed program (figure 3c).
rt::TuningConfig default_tuning(const std::vector<patterns::Candidate>& candidates);

}  // namespace patty::transform
