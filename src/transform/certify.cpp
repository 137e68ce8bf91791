#include "transform/certify.hpp"

#include <mutex>

#include "analysis/callgraph.hpp"
#include "observe/metrics.hpp"
#include "observe/trace.hpp"
#include "race/explorer.hpp"
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

analysis::MhpGraph build_region_graph(const std::vector<RegionShape>& shapes) {
  analysis::MhpGraph graph;
  for (std::size_t r = 0; r < shapes.size(); ++r) {
    const RegionShape& shape = shapes[r];
    bool any_parallel_instances = false;
    for (const StageShape& stage : shape.stages) {
      analysis::MhpNode node;
      node.label = "region" + std::to_string(r) + "." + stage.label;
      node.region = static_cast<int>(r);
      node.multiplicity = stage.replication == 0 ? 2 : stage.replication;
      node.induction_slot = shape.induction_slot;
      node.stmts = stage.stmts;
      node.method = shape.method;
      if (node.multiplicity > 1) any_parallel_instances = true;
      graph.nodes.push_back(std::move(node));
    }
    if (!shape.sequential &&
        (shape.stages.size() > 1 || any_parallel_instances))
      graph.concurrent_regions.insert(static_cast<int>(r));
  }
  return graph;
}

namespace {

/// Lower one residue pair into an explorer conflict probe. Opaque residue
/// assumes worst-case aliasing: both instances hit the same cell, and the
/// vector-clock detector reports the conflict unless some modeled
/// synchronization orders them (there is none — region instances share no
/// locks). Non-opaque residue (pure index arithmetic) places each instance
/// on its own cell: the schedules the explorer enumerates then certify
/// that nothing else in the probe conflicts.
ProbeOutcome run_conflict_probe(const analysis::ConflictPair& pair,
                                std::size_t pair_index) {
  ProbeOutcome probe;
  probe.label = "pair" + std::to_string(pair_index) + ":" + pair.loc.key();

  const std::string cell = pair.loc.key();
  const bool opaque = pair.opaque;
  std::vector<race::TaskFn> tasks;
  for (int i = 0; i < 2; ++i) {
    tasks.push_back([cell, opaque, i](race::TaskContext& ctx) {
      const std::string target =
          opaque ? cell : cell + "#" + std::to_string(i);
      ctx.write(target, i);
      ctx.read(target);
    });
  }
  const race::ExploreResult result = race::explore(tasks);
  probe.schedules_explored = result.schedules_explored;
  probe.raced = !result.races.empty();
  if (probe.raced) {
    const race::RaceReport& r = result.races.front();
    probe.detail = (r.write_write ? "write-write race on '"
                                  : "read-write race on '") +
                   r.var + "'";
  }
  return probe;
}

/// Structural order residue: a replicated stage with order preservation
/// off. The systematic order probe (testgen) enumerates schedules and
/// returns the violating one when it exists.
ProbeOutcome run_order_probe(const RegionShape& shape,
                             const StageShape& stage) {
  ProbeOutcome probe;
  probe.label = "order:" + stage.label;

  ParallelUnitTest test;
  test.candidate = shape.candidate;
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
}

}  // namespace

ProgramCertificate certify_program(
    const lang::Program& program,
    const std::vector<patterns::Candidate>& candidates,
    const rt::TuningConfig* tuning, const std::string& name) {
  ProgramCertificate cert;
  cert.program = name;

  const analysis::CallGraph cg = analysis::build_call_graph(program);
  const analysis::EffectAnalysis effects(program, cg);
  const std::vector<RegionShape> shapes =
      plan_region_shapes(program, effects, candidates, tuning);
  const analysis::MhpGraph graph = build_region_graph(shapes);
  const analysis::MhpFacts facts(graph);
  const analysis::FreshnessAnalysis freshness(program, cg, effects);
  cert.summary = analysis::enumerate_conflicts(graph, facts, effects,
                                               freshness);

  // Lower the effect residue into conflict probes.
  for (std::size_t i = 0; i < cert.summary.pairs.size(); ++i) {
    const analysis::ConflictPair& pair = cert.summary.pairs[i];
    if (pair.discharge != analysis::Discharge::Residue) continue;
    cert.probes.push_back(run_conflict_probe(pair, i));
  }
  // Lower the structural order residue.
  for (const RegionShape& shape : shapes) {
    if (shape.sequential) continue;
    for (const StageShape& stage : shape.stages) {
      const bool replicated = stage.replication == 0 || stage.replication > 1;
      if (replicated && !stage.preserve_order)
        cert.probes.push_back(run_order_probe(shape, stage));
    }
  }

  bool any_raced = false;
  for (const ProbeOutcome& probe : cert.probes) any_raced |= probe.raced;
  if (any_raced)
    cert.verdict = Verdict::ResidueRaced;
  else if (!cert.probes.empty())
    cert.verdict = Verdict::CertifiedExplored;
  else
    cert.verdict = Verdict::CertifiedStatic;
  return cert;
}

CorpusCertification certify_corpus(
    const std::vector<const corpus::CorpusProgram*>& programs,
    corpus::FrontendConfig base) {
  CorpusCertification result;
  result.programs.resize(programs.size());

  std::mutex mutex;
  base.inspect = [&](const corpus::ProgramInspection& in) {
    ProgramCertificate cert =
        certify_program(*in.parsed, in.detection->candidates,
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
    for (const ProbeOutcome& probe : cert.probes)
      if (probe.raced) ++t.probes_raced;
  }
  publish_counters(t);
  return result;
}

}  // namespace patty::transform
