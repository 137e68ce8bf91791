#pragma once
// May-happen-in-parallel analysis over fork-join region graphs.
//
// The transformation phase turns each detected candidate into a fork-join
// region: a parallel loop body replicated across workers, a pipeline's
// generator plus stages streaming elements concurrently, or a master/worker
// task set. This module takes that region structure — as a flat node graph,
// pattern-agnostic — computes which node instances may overlap in time, and
// intersects the overlap relation with the effect analysis to enumerate
// *candidate conflicting access pairs*: (node, node, abstract location)
// triples where one side writes and the other touches the same location
// while both may be running.
//
// Most pairs discharge statically:
//   ordered      — the nodes can never overlap (different regions execute
//                  sequentially in program order; sequential-fallback
//                  regions never fork).
//   disjoint     — overlapping instances provably touch different concrete
//                  cells: induction-uniform subscripts (instance k touches
//                  only slot k; same-element cross-stage access is ordered
//                  by the stage queues), or accesses through separated
//                  allocation roots (two allocation-rooted names never hold
//                  the same object — see FreshnessAnalysis).
//   private/fresh— per-instance state: locals (snapshot frames), reduction
//                  accumulators (privatized per chunk), and writes that
//                  only land on objects the instance allocated itself.
//                  Fresh objects become visible to other instances only by
//                  publication through the region's queues/joins, which
//                  order the publisher's writes before any consumer read.
//   residue      — everything else. The caller decides each residue pair
//                  from its `opaque` bit (transform/certify).
//
// The split mirrors the tool's philosophy: prove what is provable with the
// pessimistic static machinery, and leave exactly the remainder — no more —
// as residue.

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "analysis/effects.hpp"
#include "lang/ast.hpp"

namespace patty::analysis {

/// One unit of concurrently schedulable work inside a region: a parallel
/// loop body, one pipeline stage, the stream generator, or one
/// master/worker task.
struct MhpNode {
  std::string label;
  /// Region id: nodes of the same region belong to one fork-join construct
  /// and may stream elements concurrently; distinct regions run in program
  /// order (the executor joins every region before continuing).
  int region = 0;
  /// Concurrent instances of this node (workers / stage replication).
  /// multiplicity > 1 means two instances of the node itself may overlap.
  int multiplicity = 1;
  /// Canonical induction slot of the region's element index, -1 if none.
  /// Subscripts that are exactly this variable are per-instance-disjoint.
  int induction_slot = -1;
  /// Top-level statements the node executes (accesses are classified by
  /// walking these; effects reached only through calls are opaque).
  std::vector<const lang::Stmt*> stmts;
  const lang::MethodDecl* method = nullptr;
};

struct MhpGraph {
  std::vector<MhpNode> nodes;
  /// Regions whose nodes actually fork (the plan runs them in parallel).
  /// A region not in this set executes sequentially — the fallback path —
  /// so none of its pairs can overlap.
  std::set<int> concurrent_regions;
};

/// The MHP relation itself. Node instances of the same concurrent region
/// may overlap (streaming: stage s works element k+1 while stage t works
/// element k); a single-instance node does not overlap itself; nodes of
/// different regions — or of a sequential region — never overlap.
class MhpFacts {
 public:
  explicit MhpFacts(const MhpGraph& graph);

  [[nodiscard]] bool may_happen_in_parallel(int a, int b) const;
  [[nodiscard]] bool must_be_sequential(int a, int b) const {
    return !may_happen_in_parallel(a, b);
  }

 private:
  std::vector<int> region_;
  std::vector<int> multiplicity_;
  std::set<int> concurrent_regions_;
};

enum class Discharge : std::uint8_t {
  Ordered,
  Disjoint,
  PrivateOrFresh,
  Residue,
};

const char* discharge_name(Discharge d);

/// One candidate conflicting access pair: nodes a and b may both touch
/// `loc` while overlapping, and at least one side writes.
struct ConflictPair {
  int a = 0;
  int b = 0;
  AbsLoc loc;
  Discharge discharge = Discharge::Residue;
  /// The rule that discharged the pair (or why it is residue).
  std::string rule;
  /// Residue only: true when some access reaches `loc` through memory (a
  /// subscript loading an array/field/local fed by one) or only through a
  /// call summary, so two instances must be assumed to hit one cell: the
  /// pair races. False means every access is a pure function of the element
  /// index, so instances touch distinct cells (the observed-independence
  /// residue): the pair is clean.
  bool opaque = false;
};

struct MhpSummary {
  std::vector<ConflictPair> pairs;
  std::size_t ordered = 0;
  std::size_t disjoint = 0;
  std::size_t private_or_fresh = 0;
  std::size_t residue = 0;
  [[nodiscard]] std::size_t total() const { return pairs.size(); }
  [[nodiscard]] std::size_t discharged() const {
    return ordered + disjoint + private_or_fresh;
  }
};

/// Enumerate and discharge the conflicting access pairs of a region graph.
MhpSummary enumerate_conflicts(const MhpGraph& graph, const MhpFacts& facts,
                               const EffectAnalysis& effects,
                               const FreshnessAnalysis& freshness);

}  // namespace patty::analysis
