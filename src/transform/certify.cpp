#include "transform/certify.hpp"

#include <algorithm>
#include <mutex>

#include "analysis/callgraph.hpp"
#include "analysis/semantic_model.hpp"
#include "observe/metrics.hpp"
#include "observe/trace.hpp"
#include "transform/testgen.hpp"

namespace patty::transform {

const char* verdict_name(Verdict v) {
  switch (v) {
    case Verdict::CertifiedStatic: return "certified-static";
    case Verdict::CertifiedExplored: return "certified-explored";
    case Verdict::ResidueRaced: return "residue-raced";
  }
  return "?";
}

analysis::MhpGraph build_region_graph(
    const std::vector<patterns::RegionPlan>& plans) {
  analysis::MhpGraph graph;
  for (std::size_t r = 0; r < plans.size(); ++r) {
    const patterns::RegionPlan& plan = plans[r];
    const std::size_t first = graph.nodes.size();
    bool any_parallel_instances = false;
    for (const patterns::PlanStage& stage : plan.resolved) {
      for (const patterns::PlanMember& member : stage.members) {
        analysis::MhpNode node;
        node.label = "region" + std::to_string(r) + "." + member.label;
        node.region = static_cast<int>(r);
        node.multiplicity = stage.replication == 0 ? 2 : stage.replication;
        node.induction_slot = plan.induction_slot;
        node.stmts = member.stmts;
        node.method = plan.method;
        if (node.multiplicity > 1) any_parallel_instances = true;
        graph.nodes.push_back(std::move(node));
      }
    }
    if (!plan.sequential() &&
        (graph.nodes.size() - first > 1 || any_parallel_instances))
      graph.concurrent_regions.insert(static_cast<int>(r));
  }
  return graph;
}

namespace {

/// Decide one residue pair. Region instances share no locks, so nothing
/// orders two instances of an overlapping pair: opaque residue, which must
/// assume both instances hit one cell, races; pure-index residue puts each
/// instance on its own cell and cannot.
ProbeOutcome decide_conflict(const analysis::ConflictPair& pair,
                             std::size_t pair_index) {
  const std::string cell = pair.loc.key();
  ProbeOutcome probe;
  probe.label = "pair" + std::to_string(pair_index) + ":" + cell;
  probe.raced = pair.opaque;
  if (probe.raced) probe.detail = "read-write race on '" + cell + "'";
  return probe;
}

/// Structural order residue: a replicated stage with order preservation
/// off. The systematic order probe (testgen) enumerates schedules and
/// returns the violating one when it exists.
ProbeOutcome run_order_probe(const patterns::RegionPlan& plan,
                             const patterns::PlanStage& stage) {
  ProbeOutcome probe;
  probe.label = "order:" + stage.label;

  ParallelUnitTest test;
  test.candidate = plan.candidate;
  test.name = probe.label;
  rt::TuningParameter rep;
  rep.name = "probe.replication";
  rep.value = stage.replication == 0 ? 2 : stage.replication;
  test.config.define(rep);
  rt::TuningParameter order;
  order.name = "probe.order";
  order.kind = rt::TuningKind::Bool;
  order.value = 0;
  test.config.define(order);

  const ExplorationOutcome outcome = explore_order_probe(test);
  probe.schedules_explored = outcome.schedules_explored;
  probe.raced = outcome.order_violation_possible;
  probe.detail = outcome.detail;
  return probe;
}

void publish_counters(const CertificationTotals& t) {
  if (!observe::enabled()) return;
  observe::Registry& reg = observe::Registry::global();
  reg.counter("mhp.programs").add(t.programs);
  reg.counter("mhp.certified_static").add(t.certified_static);
  reg.counter("mhp.certified_explored").add(t.certified_explored);
  reg.counter("mhp.residue_raced").add(t.residue_raced);
  reg.counter("mhp.pairs").add(t.pairs);
  reg.counter("mhp.pairs.ordered").add(t.ordered);
  reg.counter("mhp.pairs.disjoint").add(t.disjoint);
  reg.counter("mhp.pairs.private_fresh").add(t.private_or_fresh);
  reg.counter("mhp.pairs.residue").add(t.residue);
  reg.counter("mhp.probes").add(t.probes);
  reg.counter("mhp.probes.raced").add(t.probes_raced);
  reg.counter("mhp.probes.explored").add(t.probes_explored);
}

ProgramCertificate certify(const lang::Program& program,
                           const analysis::CallGraph& cg,
                           const analysis::EffectAnalysis& effects,
                           const std::vector<patterns::Candidate>& candidates,
                           const rt::TuningConfig* tuning,
                           const std::string& name) {
  ProgramCertificate cert;
  cert.program = name;

  std::vector<patterns::RegionPlan> plans;
  plans.reserve(candidates.size());
  for (const patterns::Candidate& c : candidates)
    if (c.anchor) plans.push_back(patterns::plan_region(c, tuning));
  const analysis::MhpGraph graph = build_region_graph(plans);
  const analysis::MhpFacts facts(graph);
  const analysis::FreshnessAnalysis freshness(program, cg, effects);
  cert.summary = analysis::enumerate_conflicts(graph, facts, effects,
                                               freshness);
  cert.regions.resize(plans.size());
  for (std::size_t r = 0; r < plans.size(); ++r)
    cert.regions[r].anchor = plans[r].candidate->location();

  // Decide the effect residue. Only a pair that may overlap is residue, and
  // distinct regions never overlap, so both nodes name the pair's region.
  for (std::size_t i = 0; i < cert.summary.pairs.size(); ++i) {
    const analysis::ConflictPair& pair = cert.summary.pairs[i];
    if (pair.discharge != analysis::Discharge::Residue) continue;
    RegionCertificate& region = cert.regions[static_cast<std::size_t>(
        graph.nodes[static_cast<std::size_t>(pair.a)].region)];
    region.residue_pairs.push_back(i);
    region.probes.push_back(cert.probes.size());
    cert.probes.push_back(decide_conflict(pair, i));
  }
  // Explore the structural order residue.
  for (std::size_t r = 0; r < plans.size(); ++r) {
    const patterns::RegionPlan& plan = plans[r];
    if (plan.sequential()) continue;
    for (const patterns::PlanStage& stage : plan.resolved) {
      const bool replicated = stage.replication == 0 || stage.replication > 1;
      if (!replicated || stage.preserve_order) continue;
      cert.regions[r].probes.push_back(cert.probes.size());
      cert.probes.push_back(run_order_probe(plan, stage));
    }
  }

  for (RegionCertificate& region : cert.regions) {
    if (!region.probes.empty()) region.verdict = Verdict::CertifiedExplored;
    for (std::size_t p : region.probes)
      if (cert.probes[p].raced) region.verdict = Verdict::ResidueRaced;
    cert.verdict = std::max(cert.verdict, region.verdict);
  }
  return cert;
}

}  // namespace

ProgramCertificate certify_program(
    const lang::Program& program,
    const std::vector<patterns::Candidate>& candidates,
    const rt::TuningConfig* tuning, const std::string& name) {
  const analysis::CallGraph cg = analysis::build_call_graph(program);
  const analysis::EffectAnalysis effects(program, cg);
  return certify(program, cg, effects, candidates, tuning, name);
}

ProgramCertificate certify_program(
    const analysis::SemanticModel& model,
    const std::vector<patterns::Candidate>& candidates,
    const rt::TuningConfig* tuning, const std::string& name) {
  return certify(model.program(), model.call_graph(), model.effects(),
                 candidates, tuning, name);
}

CorpusCertification certify_corpus(
    const std::vector<const corpus::CorpusProgram*>& programs,
    corpus::FrontendConfig base) {
  CorpusCertification result;
  result.programs.resize(programs.size());

  std::mutex mutex;
  base.inspect = [&](const corpus::ProgramInspection& in) {
    ProgramCertificate cert =
        certify_program(*in.model, in.detection->candidates,
                        /*tuning=*/nullptr, in.program->name);
    std::scoped_lock lock(mutex);
    result.programs[in.index] = std::move(cert);
  };
  const corpus::CorpusReport report = corpus::evaluate_corpus(programs, base);

  CertificationTotals& t = result.totals;
  for (std::size_t i = 0; i < report.programs.size(); ++i) {
    ProgramCertificate& cert = result.programs[i];
    if (!report.programs[i].error.empty()) {
      cert.program = report.programs[i].name;
      cert.error = report.programs[i].error;
      ++t.errors;
      continue;
    }
    ++t.programs;
    switch (cert.verdict) {
      case Verdict::CertifiedStatic: ++t.certified_static; break;
      case Verdict::CertifiedExplored: ++t.certified_explored; break;
      case Verdict::ResidueRaced: ++t.residue_raced; break;
    }
    t.pairs += cert.summary.total();
    t.ordered += cert.summary.ordered;
    t.disjoint += cert.summary.disjoint;
    t.private_or_fresh += cert.summary.private_or_fresh;
    t.residue += cert.summary.residue;
    t.probes += cert.probes.size();
    for (const ProbeOutcome& probe : cert.probes) {
      if (probe.raced) ++t.probes_raced;
      if (probe.schedules_explored > 0) ++t.probes_explored;
    }
  }
  publish_counters(t);
  return result;
}

}  // namespace patty::transform
