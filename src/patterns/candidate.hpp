#pragma once
// Detection results: parallelization candidates found by matching the
// source-pattern catalog against the semantic model (paper §2.1, step 2).
//
// A Candidate carries everything the later phases need: the matched source
// location, the target pattern, the stage structure (for pipelines), the
// derived tuning parameters (PLTP), and the TADL expression that the
// annotator writes into the source.

#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "runtime/tuning.hpp"

namespace patty::patterns {

enum class PatternKind : std::uint8_t {
  Pipeline,
  DataParallelLoop,
  MasterWorker,
};

const char* pattern_kind_name(PatternKind kind);

/// One pipeline stage: a contiguous interval of top-level loop-body
/// statements (PLDD merges statements connected by carried dependences,
/// including everything in between).
struct StageSpec {
  std::string label;             // "A", "B", ... as in figure 3b
  std::vector<int> stmt_ids;     // top-level body statements, program order
  bool replicable = false;       // no carried deps touch this stage
  bool writes_io = false;        // print() inside: never replicate
  double runtime_share = 0.0;    // fraction of the loop body's cost
};

struct Candidate {
  PatternKind kind = PatternKind::Pipeline;
  const lang::Stmt* anchor = nullptr;        // the loop / first statement
  const lang::MethodDecl* method = nullptr;
  double runtime_share = 0.0;                // of whole-program cost
  std::string reason;                        // why this location qualified

  // Pipeline-specific:
  std::vector<StageSpec> stages;
  /// Sections group consecutive mutually independent stages: each inner
  /// vector holds stage indices that may run as master/worker (fig. 2's
  /// (A || B || C+) section). Singleton sections are plain stages.
  std::vector<std::vector<std::size_t>> sections;

  // Data-parallel-loop-specific:
  bool is_reduction = false;
  int reduction_stmt_id = -1;

  // Master/worker-specific (standalone): the independent statements.
  std::vector<int> task_stmt_ids;

  /// Tuning parameters derived for this candidate (PLTP).
  std::vector<rt::TuningParameter> tuning;
  /// TADL expression, e.g. "(A || B || C+) => D => E".
  std::string tadl;
  /// Predicted speedup of the best tuned configuration over sequential,
  /// from the design-time cost model (tuning::annotate_predicted_speedups).
  /// 0 = not predicted. Deliberately absent from detection fingerprints:
  /// it depends on the machine, not the source.
  double predicted_speedup = 0.0;

  /// Profiled leaves of the design-time cost model, in profiler cost units
  /// (one per executed statement, n per work(n)). Absent from detection
  /// fingerprints like predicted_speedup, and zero or empty where the
  /// profile never reached the region. Loops: iterations per entry and the
  /// body's inclusive cost per iteration. Master/worker: each task
  /// statement's inclusive cost per execution.
  double trips_per_entry = 0.0;
  double cost_per_iteration = 0.0;
  std::vector<double> task_costs;

  [[nodiscard]] std::string location() const {
    return anchor ? anchor->range.str() : "<unknown>";
  }
};

/// A loop the detector examined and rejected, with the PL-rule that failed.
struct RejectedLoop {
  const lang::Stmt* loop = nullptr;
  std::string rule;    // "PLCD", "PLDD", ...
  std::string reason;
};

struct DetectionResult {
  std::vector<Candidate> candidates;  // ranked by runtime share, descending
  std::vector<RejectedLoop> rejected;
};

}  // namespace patty::patterns
