#pragma once
// Parallel source-code generation (paper figure 3d).
//
// Produces the textual transformation artifact: the containing method
// rewritten to instantiate the parallel runtime library (Item, MasterWorker,
// Pipeline, ParallelFor) in place of the sequential loop. The executable
// counterpart of this artifact is ParallelPlanExecutor (plan.hpp); this
// text is what the engineer reviews in the IDE.

#include <string>

#include "patterns/candidate.hpp"

namespace patty::transform {

/// Rewritten method body for one candidate, rendered as source text from
/// its region plan (patterns/region_plan).
std::string generate_parallel_source(const patterns::Candidate& candidate);

/// Full artifact bundle for a candidate: annotated source region, parallel
/// code, and the tuning configuration — everything figure 3 shows.
struct TransformationArtifacts {
  std::string annotated_source;   // figure 3b
  std::string tuning_file;        // figure 3c
  std::string parallel_source;    // figure 3d
};

TransformationArtifacts make_artifacts(const lang::Program& program,
                                       const patterns::Candidate& candidate);

}  // namespace patty::transform
