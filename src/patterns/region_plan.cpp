#include "patterns/region_plan.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "analysis/dependence.hpp"
#include "analysis/effects.hpp"

namespace patty::patterns {

using lang::Stmt;
using lang::StmtKind;

namespace {

/// A candidate's knob values under a tuning, by their name after the
/// candidate's knob prefix ("stageA.replication", "buffer").
struct Knobs {
  const Candidate& c;
  const rt::TuningConfig* tuning;
  std::size_t prefix =
      c.tuning.empty() ? 0 : knob_prefix(c.tuning.front().name).size();

  std::int64_t operator()(const std::string& tail,
                          std::int64_t fallback) const {
    for (const rt::TuningParameter& p : c.tuning)
      if (p.name.size() == prefix + tail.size() &&
          p.name.compare(prefix, tail.size(), tail) == 0)
        return tuning ? tuning->get_or(p.name, p.value) : p.value;
    return fallback;
  }
};

/// Every local slot declared inside the statement subtrees.
std::set<int> declared_slots(const std::vector<const Stmt*>& body) {
  std::set<int> slots;
  for (const Stmt* top : body) {
    lang::for_each_stmt(*top, [&](const Stmt& st) {
      if (st.kind == StmtKind::VarDecl) slots.insert(st.as<lang::VarDecl>().slot);
      if (st.kind == StmtKind::Foreach) slots.insert(st.as<lang::Foreach>().slot);
    });
  }
  return slots;
}

/// Slots an expression reads.
void expr_slots(const lang::Expr& e, std::set<int>* slots) {
  lang::for_each_expr_in(e, [&](const lang::Expr& sub) {
    if (sub.kind == lang::ExprKind::VarRef) {
      const auto& ref = sub.as<lang::VarRef>();
      if (ref.is_local()) slots->insert(ref.slot);
    }
  });
}

/// The slots and safety of a loop region: element-index, reduction and
/// write-back slots, and every reason its elements cannot run on snapshot
/// frames (the plan's sequential reason).
void plan_loop_slots(const Candidate& c, const std::vector<const Stmt*>& body,
                     RegionPlan* plan) {
  std::string unsafe;
  if (c.anchor->kind == StmtKind::While)
    unsafe = "while-loop headers cannot stream-generate";

  const std::set<int> declared = declared_slots(body);
  std::set<int> reads, writes;
  for (const Stmt* top : body) analysis::local_slot_effects(*top, &reads, &writes);

  // Header slots: For init/cond/step, Foreach loop variable + iterable.
  std::set<int> header_reads;
  if (c.anchor->kind == StmtKind::For) {
    const auto& f = c.anchor->as<lang::For>();
    if (f.cond) expr_slots(*f.cond, &header_reads);
    if (f.step) {
      std::set<int> step_writes;
      analysis::local_slot_effects(*f.step, &header_reads, &step_writes);
      for (int slot : step_writes)
        if (writes.count(slot)) unsafe = "loop body writes the induction variable";
    }
    if (f.init && f.init->kind == StmtKind::VarDecl)
      plan->induction_slot = f.init->as<lang::VarDecl>().slot;
  } else if (c.anchor->kind == StmtKind::Foreach) {
    plan->induction_slot = c.anchor->as<lang::Foreach>().slot;
  }

  if (c.is_reduction && c.reduction_stmt_id >= 0) {
    const Stmt* red = nullptr;
    for (const Stmt* top : body) {
      lang::for_each_stmt(*top, [&](const Stmt& st) {
        if (st.id == c.reduction_stmt_id) red = &st;
      });
    }
    if (red && red->kind == StmtKind::Assign) {
      const auto& a = red->as<lang::Assign>();
      if (a.target->kind == lang::ExprKind::VarRef) {
        const auto& tgt = a.target->as<lang::VarRef>();
        if (tgt.is_local() && a.value->kind == lang::ExprKind::Binary) {
          plan->reduction_slot = tgt.slot;
          plan->reduction_op = a.value->as<lang::Binary>().op;
        } else {
          unsafe = "reduction accumulator is a field (shared heap state)";
        }
      }
    }
    if (plan->reduction_slot < 0 && unsafe.empty())
      unsafe = "reduction statement shape not executable";
  }

  // Scalar carried state: an outer-declared slot both written and read by
  // the body (or read by the loop header) cannot be represented with
  // per-element snapshot frames.
  if (unsafe.empty()) {
    for (int slot : writes) {
      if (declared.count(slot)) continue;               // per-iteration temporary
      if (slot == plan->induction_slot) continue;       // header-managed
      if (slot == plan->reduction_slot) continue;       // handled specially
      if (reads.count(slot) || header_reads.count(slot)) {
        unsafe = "loop-carried scalar state in an outer local (slot " +
                 std::to_string(slot) + ")";
        break;
      }
      plan->writeback_slots.push_back(slot);
    }
  }
  plan->sequential_reason = std::move(unsafe);
}

/// One stage per section, and the stages as they run under the tuning.
void plan_pipeline_stages(const Candidate& c,
                          const std::vector<const Stmt*>& body,
                          const Knobs& knobs, RegionPlan* plan) {
  for (const std::vector<std::size_t>& section : c.sections) {
    PlanStage& stage = plan->stages.emplace_back();
    for (std::size_t idx : section) {
      const StageSpec& spec = c.stages[idx];
      PlanMember& member = stage.members.emplace_back(PlanMember{spec.label, {}});
      for (int id : spec.stmt_ids)
        for (const Stmt* st : body)
          if (st->id == id) member.stmts.push_back(st);
      stage.runtime_share += spec.runtime_share;
    }
    if (section.size() > 1) {
      stage.label = "(";
      for (std::size_t k = 0; k < stage.members.size(); ++k)
        stage.label += (k ? "||" : "") + stage.members[k].label;
      stage.label += ")";
      continue;
    }
    const StageSpec& spec = c.stages[section[0]];
    stage.label = spec.label;
    stage.replicable = spec.replicable;
    if (spec.replicable)
      stage.replication = static_cast<int>(std::max<std::int64_t>(
          1, knobs("stage" + spec.label + ".replication", 1)));
    stage.preserve_order = knobs("stage" + spec.label + ".order", 1) != 0;
  }
  plan->buffer = static_cast<std::size_t>(
      std::max<std::int64_t>(1, knobs("buffer", 16)));
  plan->batch = static_cast<std::size_t>(
      std::max<std::int64_t>(1, knobs("batch", 1)));

  // The stages as they run: StageFusion merges runs of consecutive
  // single-member stages into one stage each.
  const std::vector<PlanStage>& stages = plan->stages;
  for (std::size_t s = 0; s < stages.size(); ++s) {
    PlanStage group = stages[s];
    while (s + 1 < stages.size() && stages[s].members.size() == 1 &&
           stages[s + 1].members.size() == 1 &&
           knobs("fuse" + stages[s].label + stages[s + 1].label, 0) != 0) {
      const PlanStage& next = stages[++s];
      group.label += "+" + next.label;
      group.members.front().label = group.label;
      std::vector<const Stmt*>& stmts = group.members.front().stmts;
      for (const Stmt* st : next.members.front().stmts) stmts.push_back(st);
      group.replicable = group.replicable && next.replicable;
      group.runtime_share += next.runtime_share;
      group.replication = std::max(group.replication, next.replication);
      group.preserve_order = group.preserve_order || next.preserve_order;
    }
    if (!group.replicable) group.replication = 1;
    plan->resolved.push_back(std::move(group));
  }
}

}  // namespace

std::string knob_prefix(const std::string& knob_name) {
  for (const char* marker : {"pipeline@", "parfor@", "masterworker@"}) {
    const std::size_t pos = knob_name.find(marker);
    if (pos == std::string::npos) continue;
    const std::size_t dot = knob_name.find('.', pos);
    if (dot != std::string::npos) return knob_name.substr(0, dot + 1);
  }
  return "";
}

RegionPlan plan_region(const Candidate& c, const rt::TuningConfig* tuning) {
  RegionPlan plan;
  plan.candidate = &c;
  plan.method = c.method;
  const Knobs knobs{c, tuning};

  if (c.kind == PatternKind::MasterWorker) {
    // The tasks are consecutive statements of one block of the method.
    PlanStage& stage = plan.stages.emplace_back();
    stage.label = "tasks";
    std::vector<const Stmt*> tasks(c.task_stmt_ids.size(), nullptr);
    if (c.method) {
      lang::for_each_stmt(*c.method->body, [&](const Stmt& st) {
        for (std::size_t k = 0; k < tasks.size(); ++k)
          if (st.id == c.task_stmt_ids[k]) tasks[k] = &st;
      });
    }
    for (std::size_t k = 0; k < tasks.size(); ++k) {
      if (!tasks[k]) {
        plan.sequential_reason = "task statement not found";
        continue;
      }
      stage.members.push_back({"task" + std::to_string(k), {tasks[k]}});
    }
    plan.workers = static_cast<int>(knobs("workers", 0));
    plan.resolved = plan.stages;
    return plan;
  }

  const std::vector<const Stmt*> body =
      c.anchor ? analysis::loop_body_statements(*c.anchor)
               : std::vector<const Stmt*>{};
  if (c.anchor) plan_loop_slots(c, body, &plan);
  if (!plan.sequential() && knobs("sequential", 0) != 0)
    plan.sequential_reason = "SequentialExecution enabled";

  if (c.kind == PatternKind::DataParallelLoop) {
    PlanStage& stage = plan.stages.emplace_back();
    stage.label = "body";
    stage.members.push_back({"body", body});
    stage.replicable = true;
    stage.replication = static_cast<int>(
        std::max<std::int64_t>(0, knobs("threads", 0)));
    plan.grain = knobs("grain", 0);
    plan.resolved = plan.stages;
  } else {
    plan_pipeline_stages(c, body, knobs, &plan);
  }
  return plan;
}

}  // namespace patty::patterns
