#pragma once
// MHP certification of transformed programs: prove, decide, probe.
//
// For every candidate a detection run produced, the certifier takes the
// region plan the plan executor runs (patterns::plan_region), computes the
// may-happen-in-parallel relation over its node graph
// (analysis/mhp), and intersects it with the effect analysis to enumerate
// candidate conflicting access pairs. Pairs proven ordered by the fork-join
// structure, or disjoint/private by the effect + freshness machinery, are
// discharged statically. What remains is residue, and each piece of it gets
// one ProbeOutcome:
//
//  * conflict residue is decided directly from ConflictPair::opaque, the
//    way an MHP client answers mustBeSequential per pair from facts it
//    computed once. Opaque residue (subscripts that load memory,
//    call-summary-only accesses, shared field writes) must assume
//    worst-case aliasing: two unsynchronized instances may touch one cell,
//    so the pair is raced ("read-write race on '<cell>'"). Pure-index
//    residue (index arithmetic beyond the uniform refinement) places each
//    instance on the cell its own index names, so the pair is clean. No
//    schedule is explored for either (schedules_explored = 0).
//  * order residue — a pipeline stage tuned to replication > 1 with order
//    preservation off — is the undecidable case the paper defers to
//    testing. It alone runs the CHESS-style explorer (patty::race):
//    explore_order_probe hunts the emission-order-violating schedule.
//
// Verdict ladder, per region and then per program: certified-static (no
// residue at all), certified-explored (residue existed, and every decision
// about it came back clean), residue-raced (some residue pair raced or some
// order probe found a violation). A program's verdict is the worst over its
// regions.

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/mhp.hpp"
#include "corpus/corpus.hpp"
#include "patterns/region_plan.hpp"
#include "transform/plan.hpp"

namespace patty::analysis {
class SemanticModel;
}

namespace patty::transform {

/// Ordered from best to worst: a program's verdict is its regions' maximum.
enum class Verdict : std::uint8_t {
  CertifiedStatic,
  CertifiedExplored,
  ResidueRaced,
};

/// "certified-static" / "certified-explored" / "residue-raced".
const char* verdict_name(Verdict v);

/// The outcome for one residue pair ("pair<i>:<cell>", i indexing the
/// summary's pairs) or one structural order residue ("order:<stage>").
struct ProbeOutcome {
  std::string label;   // which pair / stage the probe modeled
  bool raced = false;  // the pair races / the order can be violated
  /// Schedules the explorer ran: 0 for a directly decided pair.
  std::size_t schedules_explored = 0;
  std::string detail;  // first failure description ("" when clean)
};

/// One certified region: the fork-join region of one candidate.
struct RegionCertificate {
  std::string anchor;  // the candidate's anchor range (Candidate::location)
  Verdict verdict = Verdict::CertifiedStatic;
  std::vector<std::size_t> residue_pairs;  // into ProgramCertificate::summary
  std::vector<std::size_t> probes;         // into ProgramCertificate::probes
};

struct ProgramCertificate {
  std::string program;
  Verdict verdict = Verdict::CertifiedStatic;  // worst over `regions`
  /// Conflicting access pairs over all of the program's regions.
  analysis::MhpSummary summary;
  /// Residue pairs in summary order, then order probes in region order.
  std::vector<ProbeOutcome> probes;
  /// One per candidate with an anchor, in candidate order.
  std::vector<RegionCertificate> regions;
  /// Nonempty when the front-end failed; nothing was certified.
  std::string error;
};

/// Build the MHP node graph for a set of region plans: one region per plan
/// (the executor joins each region before the next starts, so cross-region
/// pairs are ordered), one node per member of each resolved stage, at the
/// stage's replication. A replication of 0 (runtime default: one worker per
/// hardware thread) is treated as "more than one instance". The loop header
/// is no node: the executor generates every element before the region forks.
analysis::MhpGraph build_region_graph(
    const std::vector<patterns::RegionPlan>& plans);

/// Certify one program's candidates under a tuning (null = defaults).
/// Builds the program's call graph and effect analysis.
ProgramCertificate certify_program(
    const lang::Program& program,
    const std::vector<patterns::Candidate>& candidates,
    const rt::TuningConfig* tuning = nullptr,
    const std::string& name = "program");

/// The same certificate, against the frozen call graph and effect analysis
/// of `model`, which was built from the candidates' program.
ProgramCertificate certify_program(
    const analysis::SemanticModel& model,
    const std::vector<patterns::Candidate>& candidates,
    const rt::TuningConfig* tuning = nullptr,
    const std::string& name = "program");

struct CertificationTotals {
  std::size_t programs = 0;
  std::size_t certified_static = 0;
  std::size_t certified_explored = 0;
  std::size_t residue_raced = 0;
  std::size_t errors = 0;
  // Pair-level discharge totals across the corpus.
  std::size_t pairs = 0;
  std::size_t ordered = 0;
  std::size_t disjoint = 0;
  std::size_t private_or_fresh = 0;
  std::size_t residue = 0;
  std::size_t probes = 0;
  std::size_t probes_raced = 0;
  std::size_t probes_explored = 0;  // probes that ran the explorer
};

struct CorpusCertification {
  std::vector<ProgramCertificate> programs;  // corpus order
  CertificationTotals totals;
};

/// Drive certification over a corpus through the evaluation front-end
/// (corpus::evaluate_corpus with the inspect tap, certifying against each
/// program's semantic model): every program that parses and analyzes gets
/// a verdict; front-end failures surface as certificates with `error` set.
/// `base` controls the front-end (parallel, optimistic, threads); its
/// inspect member is overwritten. Publishes the `mhp.*` counters when
/// observability is on.
CorpusCertification certify_corpus(
    const std::vector<const corpus::CorpusProgram*>& programs,
    corpus::FrontendConfig base = {});

}  // namespace patty::transform
