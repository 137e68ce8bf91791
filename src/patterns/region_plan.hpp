#pragma once
// One region plan per candidate: the single description of the region a
// detected candidate runs as (paper §2.1 phase 2). The plan executor arms
// from it, the MHP certifier builds its nodes from it, the design-time cost
// model builds its stages from it and codegen prints its Items from it.
//
// A plan is the region's stage graph, with every statement resolved, plus
// each knob's value under one tuning; the graph does not depend on the
// tuning. Three rules shape a pipeline's stages:
//  * A multi-member section, such as figure 2's (A || B || C), is one stage
//    at replication 1 whose members run as a crew on each element, so the
//    members' .replication and .order knobs are inert.
//  * StageFusion acts only between two consecutive single-member stages,
//    so a fuse knob that touches a section is inert.
//  * A fused group runs at its members' largest replication, or at 1 when
//    it holds a non-replicable stage (one that prints or carries state).
// A data-parallel loop is one stage, its body, replicated over the loop's
// threads; a master/worker region is one stage whose members are its tasks.

#include <cstdint>
#include <string>
#include <vector>

#include "lang/ast.hpp"
#include "patterns/candidate.hpp"
#include "runtime/tuning.hpp"

namespace patty::patterns {

/// Statements that one thread runs in order on one element.
struct PlanMember {
  std::string label;  // "A", a fused "A+B", "body", "task0"
  std::vector<const lang::Stmt*> stmts;
};

/// One stage. replication and preserve_order are the plan's tuning's
/// values; the rest is the graph.
struct PlanStage {
  std::string label;  // "A", a section "(A||B||C)", "body", "tasks"
  std::vector<PlanMember> members;  // more than one: a crew per element
  bool replicable = false;  // its .replication and .order knobs act
  double runtime_share = 0.0;  // pipelines: share of the loop body's cost
  /// Concurrent instances; 0 is the runtime default, one worker per
  /// hardware thread ("more than one" on any machine this matters on).
  int replication = 1;
  bool preserve_order = true;
};

struct RegionPlan {
  const Candidate* candidate = nullptr;
  const lang::MethodDecl* method = nullptr;  // Candidate::method
  /// Why the region runs sequentially on every machine (an unsafe plan or
  /// SequentialExecution); empty when it may fork. The executor's
  /// prediction gate comes on top of this, for its own machine.
  std::string sequential_reason;
  /// Loop regions: the element-index slot snapshotted into each element
  /// frame, the privatized reduction accumulator, and the outer-declared
  /// slots the body writes (written back in element order).
  int induction_slot = -1;
  int reduction_slot = -1;
  lang::BinaryOp reduction_op = lang::BinaryOp::Add;
  std::vector<int> writeback_slots;
  std::vector<PlanStage> stages;  // the stage graph, in order
  /// The stages as they run under the tuning: each fused group one
  /// single-member stage, named as the runtime names it ("A+B").
  std::vector<PlanStage> resolved;
  std::size_t buffer = 16;  // pipelines: inter-stage queue capacity
  std::size_t batch = 1;    // pipelines: elements per queue operation
  std::int64_t grain = 0;   // data-parallel loops: chunk size, 0 = auto
  int workers = 0;          // master/worker crew, 0 = shared pool

  [[nodiscard]] bool sequential() const { return !sequential_reason.empty(); }
};

/// The plan of one candidate under `tuning` (null = the candidate's
/// defaults). It aliases the candidate and its program's AST.
RegionPlan plan_region(const Candidate& candidate,
                       const rt::TuningConfig* tuning);

/// The prefix, with its trailing dot, that every knob of a candidate
/// shares: "VideoApp.Process.pipeline@38.buffer" ->
/// "VideoApp.Process.pipeline@38."; "" for a bare name such as "buffer".
std::string knob_prefix(const std::string& knob_name);

}  // namespace patty::patterns
