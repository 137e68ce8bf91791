#pragma once
// Source-pattern detection (paper §2.1 phase 1, §2.2 rules).
//
// The catalog holds one detector per source/target pattern pair. Detection
// is optimistic by default: observed (dynamic) dependences override the
// pessimistic static ones wherever profiling covered the loop, which is
// what lets Patty expose more parallelism than a conservative compiler —
// at the price of needing the generated correctness tests afterwards.

#include <memory>

#include "analysis/semantic_model.hpp"
#include "patterns/candidate.hpp"

namespace patty::patterns {

struct DetectionOptions {
  /// Use dynamic dependences when available (the paper's mode). False
  /// reproduces a purely static tool (used as baseline in the benches).
  bool optimistic = true;
  /// Ignore candidates whose whole-program runtime share is below this.
  double min_runtime_share = 0.0;
  /// PLDS: distrust observed independence for array writes whose subscript
  /// loads memory (`a[idx[i]] = ...`): the profiled input may be a
  /// collision-free special case of an aliasing access pattern. Fires only
  /// when the static analysis disagrees (sees a carried dependence), so
  /// statically-proven loops are unaffected. Off reproduces the pre-guard
  /// optimistic detector, which a regression test compares against. Racy
  /// residue for the certifier needs no such switch: a scatter through a
  /// local copy of the index load (`int j = idx[i]; dst[j] = ...`) escapes
  /// the guard.
  bool scatter_guard = true;
};

/// Detect pipeline candidates in one loop. Returns a candidate or a
/// rejection (exactly one of the optionals is set).
struct PipelineOutcome {
  std::optional<Candidate> candidate;
  std::optional<RejectedLoop> rejection;
};
PipelineOutcome detect_pipeline(const analysis::SemanticModel& model,
                                const lang::Stmt& loop,
                                const DetectionOptions& options);

/// Detect a data-parallel loop (incl. reduction recognition) in one loop.
PipelineOutcome detect_data_parallel(const analysis::SemanticModel& model,
                                     const lang::Stmt& loop,
                                     const DetectionOptions& options);

/// Detect standalone master/worker regions (runs of >= 2 consecutive,
/// mutually independent, call-bearing statements) in all method bodies.
std::vector<Candidate> detect_master_worker(
    const analysis::SemanticModel& model);

/// Run the whole catalog: every loop is tried as data-parallel first (the
/// stronger pattern), then as pipeline; plus standalone master/worker
/// regions. Candidates are ranked by runtime share.
DetectionResult detect_all(const analysis::SemanticModel& model,
                           DetectionOptions options = {});

/// Stage labels "A", "B", ..., "Z", "A1", ...
std::string stage_label(std::size_t index);

/// Canonical serialization of a detection result (every candidate field
/// that downstream phases consume, plus rejections). Two runs produced the
/// same detection exactly when the fingerprints are string-equal — the
/// determinism harness compares parallel vs sequential front-ends with it.
std::string detection_fingerprint(const DetectionResult& result);

}  // namespace patty::patterns
