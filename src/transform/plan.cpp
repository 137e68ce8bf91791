#include "transform/plan.hpp"

#include <cstdio>
#include <map>
#include <mutex>
#include <set>

#include "analysis/dependence.hpp"
#include "analysis/effects.hpp"
#include "observe/metrics.hpp"
#include "runtime/master_worker.hpp"
#include "runtime/parallel_for.hpp"
#include "runtime/pipeline.hpp"
#include "support/diagnostics.hpp"
#include "tuning/model.hpp"

namespace patty::transform {

using analysis::ExecSignal;
using analysis::Frame;
using analysis::Interpreter;
using analysis::Value;
using lang::Stmt;
using lang::StmtKind;
using patterns::Candidate;
using patterns::PatternKind;

namespace {

/// Statement ids of the master/worker candidate currently executing on this
/// thread. While set, interception is suppressed for those statements so
/// the worker tasks execute their statements normally instead of being
/// re-intercepted (the anchor) or skipped (the absorbed ones).
thread_local const std::set<int>* g_active_master_worker = nullptr;

/// One stream element: the index in the stream plus its private frame.
struct Elem {
  std::size_t index = 0;
  std::shared_ptr<Frame> frame;
};

/// Per-candidate precomputation done once at plan build time.
struct LoopPlan {
  const Candidate* candidate = nullptr;
  std::vector<const Stmt*> body;
  /// Outer-declared local slots written by the body (ordered write-back).
  std::vector<int> writeback_slots;
  /// Loop variable managed by the header (element index), -1 if none.
  int induction_slot = -1;
  /// Reduction bookkeeping (data-parallel reductions only).
  int reduction_slot = -1;
  lang::BinaryOp reduction_op = lang::BinaryOp::Add;
  /// Reasons that force SequentialExecution regardless of tuning.
  std::string unsafe_reason;
  /// Set by the executor's gate when, untuned, the region is predicted to
  /// run slower in parallel than sequentially: the prediction and its
  /// leaves.
  std::string gate_reason;

  [[nodiscard]] bool unsafe() const { return !unsafe_reason.empty(); }
};

/// The gate's threshold on the speedup predicted at default knobs: never a
/// slowdown (the SequentialExecution knob's promise, made automatically).
constexpr double kGateSpeedup = 1.0;

/// Tuning parameter lookup by name suffix, shared by the executor and the
/// shape computation so both resolve parameters identically.
std::int64_t tuned_param(const Candidate& c, const rt::TuningConfig* tuning,
                         const std::string& suffix, std::int64_t fallback) {
  for (const rt::TuningParameter& p : c.tuning) {
    if (p.name.size() > suffix.size() &&
        p.name.compare(p.name.size() - suffix.size(), suffix.size(),
                       suffix) == 0) {
      return tuning ? tuning->get_or(p.name, p.value) : p.value;
    }
  }
  return fallback;
}

/// Collect every local slot declared inside a statement subtree.
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

/// Slots referenced by an expression (reads).
void expr_slots(const lang::Expr& e, std::set<int>* slots) {
  lang::for_each_expr_in(e, [&](const lang::Expr& sub) {
    if (sub.kind == lang::ExprKind::VarRef) {
      const auto& ref = sub.as<lang::VarRef>();
      if (ref.is_local()) slots->insert(ref.slot);
    }
  });
}

/// The safety/shape analysis of one loop candidate (pipeline or
/// data-parallel): body statements, write-back slots, reduction
/// bookkeeping, and every reason the executor must fall back to sequential.
/// Shared by the executor's plan builder and plan_region_shapes so the
/// certifier reasons about exactly the region the executor would run.
LoopPlan analyze_loop_plan(const Candidate& c) {
  LoopPlan plan;
  plan.candidate = &c;
  plan.body = analysis::loop_body_statements(*c.anchor);

  if (c.anchor->kind == StmtKind::While) {
    plan.unsafe_reason = "while-loop headers cannot stream-generate";
  }

  const std::set<int> declared = declared_slots(plan.body);
  std::set<int> reads, writes;
  for (const Stmt* top : plan.body)
    analysis::local_slot_effects(*top, &reads, &writes);

  // Header slots: For init/cond/step, Foreach loop variable + iterable.
  std::set<int> header_reads;
  if (c.anchor->kind == StmtKind::For) {
    const auto& f = c.anchor->as<lang::For>();
    if (f.cond) expr_slots(*f.cond, &header_reads);
    if (f.step) {
      std::set<int> step_writes;
      analysis::local_slot_effects(*f.step, &header_reads, &step_writes);
      for (int slot : step_writes)
        if (writes.count(slot))
          plan.unsafe_reason = "loop body writes the induction variable";
    }
    if (f.init && f.init->kind == StmtKind::VarDecl)
      plan.induction_slot = f.init->as<lang::VarDecl>().slot;
  } else if (c.anchor->kind == StmtKind::Foreach) {
    plan.induction_slot = c.anchor->as<lang::Foreach>().slot;
  }

  // Reduction bookkeeping.
  if (c.is_reduction && c.reduction_stmt_id >= 0) {
    const Stmt* red = nullptr;
    for (const Stmt* top : plan.body) {
      lang::for_each_stmt(*top, [&](const Stmt& st) {
        if (st.id == c.reduction_stmt_id) red = &st;
      });
    }
    if (red && red->kind == StmtKind::Assign) {
      const auto& a = red->as<lang::Assign>();
      if (a.target->kind == lang::ExprKind::VarRef) {
        const auto& tgt = a.target->as<lang::VarRef>();
        if (tgt.is_local() && a.value->kind == lang::ExprKind::Binary) {
          plan.reduction_slot = tgt.slot;
          plan.reduction_op = a.value->as<lang::Binary>().op;
        } else {
          plan.unsafe_reason =
              "reduction accumulator is a field (shared heap state)";
        }
      }
    }
    if (plan.reduction_slot < 0 && plan.unsafe_reason.empty())
      plan.unsafe_reason = "reduction statement shape not executable";
  }

  // Scalar carried state: an outer-declared slot both written and read by
  // the body (or read by the loop header) cannot be represented with
  // per-element snapshot frames.
  if (plan.unsafe_reason.empty()) {
    for (int slot : writes) {
      if (declared.count(slot)) continue;     // per-iteration temporary
      if (slot == plan.induction_slot) continue;  // header-managed
      if (slot == plan.reduction_slot) continue;  // handled specially
      if (reads.count(slot) || header_reads.count(slot)) {
        plan.unsafe_reason =
            "loop-carried scalar state in an outer local (slot " +
            std::to_string(slot) + ")";
        break;
      }
      plan.writeback_slots.push_back(slot);
    }
  }
  return plan;
}

/// Method whose body contains the statement with this id, or null.
const lang::MethodDecl* method_containing(const lang::Program& program,
                                          int stmt_id) {
  for (const auto& cls : program.classes) {
    for (const auto& m : cls->methods) {
      bool found = false;
      lang::for_each_stmt(*m->body, [&](const Stmt& st) {
        if (st.id == stmt_id) found = true;
      });
      if (found) return m.get();
    }
  }
  return nullptr;
}

/// A master/worker candidate's task statements, looked up in `method` (the
/// tasks are consecutive statements of one block); null where an id is not
/// found there.
std::vector<const Stmt*> task_statements(const lang::MethodDecl* method,
                                         const Candidate& c) {
  std::vector<const Stmt*> tasks(c.task_stmt_ids.size(), nullptr);
  if (!method) return tasks;
  lang::for_each_stmt(*method->body, [&](const Stmt& st) {
    for (std::size_t k = 0; k < tasks.size(); ++k)
      if (st.id == c.task_stmt_ids[k]) tasks[k] = &st;
  });
  return tasks;
}

/// The loop-body statements of one pipeline stage, in stage order.
std::vector<const Stmt*> stage_statements(const LoopPlan& plan,
                                          const patterns::StageSpec& spec) {
  std::vector<const Stmt*> out;
  for (int id : spec.stmt_ids)
    for (const Stmt* st : plan.body)
      if (st->id == id) out.push_back(st);
  return out;
}

}  // namespace

struct ParallelPlanExecutor::Impl {
  const lang::Program& program;
  std::vector<Candidate> candidates;
  const rt::TuningConfig* tuning;
  std::map<int, LoopPlan> plans;          // anchor stmt id -> plan
  /// What each node id is to the plans, read on every executed statement.
  enum class Role : std::uint8_t { None, Anchor, Absorbed };
  std::vector<Role> roles;  // Absorbed: master/worker non-anchor stmts
  std::unique_ptr<Interpreter> interp;
  std::mutex report_mutex;
  std::map<int, PlanReport> reports;

  Impl(const lang::Program& p, std::vector<Candidate> cands,
       const rt::TuningConfig* t)
      : program(p),
        candidates(std::move(cands)),
        tuning(t),
        roles(static_cast<std::size_t>(p.next_node_id), Role::None) {
    // Predict each region on this machine before any transformation runs.
    // The reports carry the tuned-best speedup next to what actually
    // happened (figure 4c's "estimated speedup" column); untuned, the
    // speedup at the default knobs gates the region.
    const tuning::Hardware hw;
    const std::vector<tuning::SpeedupPrediction> predictions =
        tuning::predict_speedups(candidates, hw);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      candidates[i].predicted_speedup = predictions[i].speedup;
      build_plan(candidates[i], predictions[i], hw.effective());
    }
  }

  std::int64_t param(const Candidate& c, const std::string& suffix,
                     std::int64_t fallback) const {
    return tuned_param(c, tuning, suffix, fallback);
  }

  void build_plan(const Candidate& c, const tuning::SpeedupPrediction& pred,
                  int hardware_threads) {
    if (!c.anchor) return;
    LoopPlan plan;
    if (c.kind == PatternKind::MasterWorker) {
      plan.candidate = &c;
      for (std::size_t i = 1; i < c.task_stmt_ids.size(); ++i)
        roles[static_cast<std::size_t>(c.task_stmt_ids[i])] = Role::Absorbed;
    } else {
      plan = analyze_loop_plan(c);
    }
    // The gate: without a tuning file the region runs at its default
    // knobs, so their prediction decides. A tuning file is obeyed as is.
    if (!tuning) plan.gate_reason = gate_note(pred, hardware_threads);
    plans[c.anchor->id] = std::move(plan);
    roles[static_cast<std::size_t>(c.anchor->id)] = Role::Anchor;
  }

  /// Why this region runs sequentially whatever the run brings, or empty:
  /// an unsafe plan, the SequentialExecution knob, or the gate.
  std::string sequential_reason(const LoopPlan& plan) const {
    if (plan.unsafe()) return plan.unsafe_reason;
    if (param(*plan.candidate, ".sequential", 0) != 0)
      return "SequentialExecution enabled";
    return plan.gate_reason;
  }

  PlanReport& report_for(const Candidate& c) {
    // Caller holds report_mutex.
    PlanReport& r = reports[c.anchor->id];
    r.loop_stmt_id = c.anchor->id;
    r.kind = c.kind;
    r.predicted_speedup = c.predicted_speedup;
    return r;
  }

  void note_fallback(const Candidate& c, const std::string& why) {
    std::scoped_lock lock(report_mutex);
    PlanReport& r = report_for(c);
    r.ran_parallel = false;
    r.note = why;
    r.runs += 1;
    r.predicted_speedup = 1.0;  // ran sequentially: no speedup to predict
  }

  /// Graceful degradation after a runtime fault: record the event; the
  /// caller then returns false so the interpreter re-executes the loop
  /// sequentially in program order.
  void note_fault_fallback(const Candidate& c, const std::string& what) {
    if (observe::enabled())
      observe::Registry::global().counter("fault.fallbacks").add();
    note_fallback(c, "parallel region faulted: " + what +
                         "; degraded to sequential");
  }

  /// Whether the interpreter can safely re-execute the region after a
  /// fault. Parallel execution only mutates per-element snapshot frames, so
  /// a loop that restarts from scratch (foreach, or `for` with an init
  /// statement resetting its induction state) replays correctly. A `for`
  /// without init cannot restart — generate_stream already advanced the
  /// induction variable in the outer frame — so its fault must propagate.
  [[nodiscard]] bool restartable(const Candidate& c) const {
    if (c.anchor->kind != StmtKind::For) return true;
    return c.anchor->as<lang::For>().init != nullptr;
  }

  void note_parallel(const Candidate& c, std::uint64_t elements,
                     const std::string& note = {}) {
    std::scoped_lock lock(report_mutex);
    PlanReport& r = report_for(c);
    r.ran_parallel = true;
    r.elements += elements;
    r.runs += 1;
    if (!note.empty()) r.note = note;
  }

  // --- Stream generation ----------------------------------------------------

  /// Run the loop header sequentially, snapshotting one frame per element.
  /// Returns false if this loop kind cannot be generated.
  bool generate_stream(const Stmt& loop, Frame& outer, Interpreter& in,
                       std::vector<Elem>* elements) {
    if (loop.kind == StmtKind::Foreach) {
      const auto& f = loop.as<lang::Foreach>();
      Value iterable = in.eval(*f.iterable, outer);
      std::size_t count = 0;
      if (iterable.is_array()) count = iterable.as_array()->elems.size();
      else if (iterable.is_list()) count = iterable.as_list()->elems.size();
      else return false;
      elements->reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        auto frame = std::make_shared<Frame>();
        frame->self_value = outer.self_value;
        frame->locals = outer.locals;  // snapshot
        frame->locals[static_cast<std::size_t>(f.slot)] =
            iterable.is_array() ? iterable.as_array()->elems[i]
                                : iterable.as_list()->elems[i];
        elements->push_back(Elem{i, std::move(frame)});
      }
      return true;
    }
    if (loop.kind == StmtKind::For) {
      const auto& f = loop.as<lang::For>();
      if (!f.cond) return false;  // no termination condition; must bail out
                                  // before init runs (fallback re-executes it)
      if (f.init) in.exec_stmt(*f.init, outer);
      std::size_t i = 0;
      while (in.eval(*f.cond, outer).as_bool()) {
        auto frame = std::make_shared<Frame>();
        frame->self_value = outer.self_value;
        frame->locals = outer.locals;  // snapshot (includes induction var)
        elements->push_back(Elem{i++, std::move(frame)});
        if (f.step) in.exec_stmt(*f.step, outer);
      }
      return true;
    }
    return false;
  }

  /// Execute the statements of one stage on an element's frame.
  void run_stmts(Interpreter& in, const std::vector<const Stmt*>& stmts,
                 Frame& frame) {
    for (const Stmt* st : stmts) {
      const ExecSignal sig = in.exec_stmt(*st, frame);
      if (sig != ExecSignal::Normal)
        fatal("control flow escaped a pipeline stage (PLCD violation)");
    }
  }

  /// Ordered write-back of escaping locals into the outer frame.
  void write_back(const LoopPlan& plan, const std::vector<Elem>& ordered,
                  Frame& outer) {
    if (plan.writeback_slots.empty() || ordered.empty()) return;
    for (const Elem& e : ordered) {
      for (int slot : plan.writeback_slots)
        outer.locals[static_cast<std::size_t>(slot)] =
            e.frame->locals[static_cast<std::size_t>(slot)];
    }
  }

  // --- Pattern execution ------------------------------------------------------

  bool run_pipeline(const LoopPlan& plan, Frame& outer, Interpreter& in) {
    const Candidate& c = *plan.candidate;
    if (const std::string why = sequential_reason(plan); !why.empty()) {
      note_fallback(c, why);
      return false;
    }
    std::vector<Elem> elements;
    if (!generate_stream(*c.anchor, outer, in, &elements)) {
      note_fallback(c, "stream generation failed for this loop form");
      return false;
    }

    std::vector<rt::Pipeline<Elem>::Stage> rt_stages;
    for (const auto& section : c.sections) {
      if (section.size() == 1) {
        const patterns::StageSpec& spec = c.stages[section[0]];
        std::vector<const Stmt*> stmts = stage_statements(plan, spec);
        int replication = spec.replicable
                              ? static_cast<int>(param(
                                    c, ".stage" + spec.label + ".replication", 1))
                              : 1;
        if (replication < 1) replication = 1;
        const bool order =
            param(c, ".stage" + spec.label + ".order", 1) != 0;
        rt::Pipeline<Elem>::Stage stage;
        stage.name = spec.label;
        stage.fn = [this, &in, stmts](Elem& e) { run_stmts(in, stmts, *e.frame); };
        stage.replication = replication;
        stage.preserve_order = order;
        rt_stages.push_back(std::move(stage));
      } else {
        // Master/worker section: the sub-stages run concurrently per element.
        std::vector<std::vector<const Stmt*>> groups;
        std::string name = "(";
        for (std::size_t k = 0; k < section.size(); ++k) {
          groups.push_back(stage_statements(plan, c.stages[section[k]]));
          if (k) name += "||";
          name += c.stages[section[k]].label;
        }
        name += ")";
        rt::Pipeline<Elem>::Stage stage;
        stage.name = std::move(name);
        // Dedicated crew sized to the section: the shared pool may have as
        // few as one thread (rt::hardware_threads()), which would serialize
        // the section's independent filters.
        const int crew = static_cast<int>(groups.size());
        stage.fn = [this, &in, groups, crew](Elem& e) {
          rt::MasterWorker mw(crew);
          std::vector<std::function<void()>> tasks;
          tasks.reserve(groups.size());
          for (const auto& g : groups)
            tasks.push_back([this, &in, &g, &e] { run_stmts(in, g, *e.frame); });
          mw.run(tasks);
        };
        stage.replication = 1;
        rt_stages.push_back(std::move(stage));
      }
    }

    // Stage fusion between consecutive singleton sections.
    for (std::size_t s = 0; s + 1 < c.sections.size(); ++s) {
      if (c.sections[s].size() != 1 || c.sections[s + 1].size() != 1) continue;
      const std::string pair = c.stages[c.sections[s][0]].label +
                               c.stages[c.sections[s + 1][0]].label;
      if (param(c, ".fuse" + pair, 0) != 0) rt_stages[s].fuse_with_next = true;
    }

    rt::PipelineConfig cfg;
    cfg.buffer_capacity =
        static_cast<std::size_t>(std::max<std::int64_t>(1, param(c, ".buffer", 16)));
    cfg.batch_size =
        static_cast<std::size_t>(std::max<std::int64_t>(1, param(c, ".batch", 1)));
    rt::Pipeline<Elem> pipeline(std::move(rt_stages), cfg);

    std::size_t next = 0;
    std::vector<Elem> done(elements.size());
    try {
      pipeline.run(
          [&]() -> std::optional<Elem> {
            if (next >= elements.size()) return std::nullopt;
            return std::move(elements[next++]);
          },
          [&](Elem&& e) { done[e.index] = std::move(e); });
    } catch (const std::exception& e) {
      if (!restartable(c)) throw;
      note_fault_fallback(c, e.what());
      return false;
    }
    write_back(plan, done, outer);
    note_parallel(c, done.size());
    return true;
  }

  bool run_data_parallel(const LoopPlan& plan, Frame& outer, Interpreter& in) {
    const Candidate& c = *plan.candidate;
    if (const std::string why = sequential_reason(plan); !why.empty()) {
      note_fallback(c, why);
      return false;
    }
    std::vector<Elem> elements;
    if (!generate_stream(*c.anchor, outer, in, &elements)) {
      note_fallback(c, "stream generation failed for this loop form");
      return false;
    }

    // Reduction accumulators start at the identity in every element frame.
    if (plan.reduction_slot >= 0) {
      for (Elem& e : elements) {
        Value& acc =
            e.frame->locals[static_cast<std::size_t>(plan.reduction_slot)];
        if (plan.reduction_op == lang::BinaryOp::Mul) {
          acc = acc.is_double() ? Value::of_double(1.0) : Value::of_int(1);
        } else {
          acc = acc.is_double() ? Value::of_double(0.0) : Value::of_int(0);
        }
      }
    }

    rt::ParallelForTuning pf;
    pf.threads = static_cast<int>(param(c, ".threads", 0));
    pf.grain = param(c, ".grain", 0);
    try {
      rt::parallel_for(
          0, static_cast<std::int64_t>(elements.size()),
          [&](std::int64_t i) {
            run_stmts(in, plan.body,
                      *elements[static_cast<std::size_t>(i)].frame);
          },
          pf);
    } catch (const std::exception& e) {
      if (!restartable(c)) throw;
      note_fault_fallback(c, e.what());
      return false;
    }

    // Fold the partial accumulators back, in element order.
    if (plan.reduction_slot >= 0) {
      Value& acc =
          outer.locals[static_cast<std::size_t>(plan.reduction_slot)];
      for (const Elem& e : elements) {
        const Value& partial =
            e.frame->locals[static_cast<std::size_t>(plan.reduction_slot)];
        if (plan.reduction_op == lang::BinaryOp::Mul) {
          if (acc.is_double() || partial.is_double())
            acc = Value::of_double(acc.to_double() * partial.to_double());
          else
            acc = Value::of_int(acc.as_int() * partial.as_int());
        } else {
          if (acc.is_double() || partial.is_double())
            acc = Value::of_double(acc.to_double() + partial.to_double());
          else
            acc = Value::of_int(acc.as_int() + partial.as_int());
        }
      }
    }
    write_back(plan, elements, outer);
    note_parallel(c, elements.size(),
                  plan.reduction_slot >= 0 ? "parallel reduction" : "");
    return true;
  }

  /// Execute one master/worker task statement: interception stays off for
  /// the region's own statements while it runs on this thread.
  static void run_task(Interpreter& in, const Stmt& st, Frame& frame,
                       const std::set<int>& own_ids) {
    // Restore on unwind too: a throwing task runs on a shared pool
    // worker whose thread_local otherwise stays poisoned for whatever
    // interception that thread executes next.
    const std::set<int>* saved = g_active_master_worker;
    g_active_master_worker = &own_ids;
    ExecSignal sig = ExecSignal::Normal;
    try {
      sig = in.exec_stmt(st, frame);
    } catch (...) {
      g_active_master_worker = saved;
      throw;
    }
    g_active_master_worker = saved;
    if (sig != ExecSignal::Normal)
      fatal("control flow escaped a master/worker task");
  }

  bool run_master_worker(const LoopPlan& plan, Frame& frame, Interpreter& in) {
    const Candidate& c = *plan.candidate;
    const std::vector<const Stmt*> tasks_stmts =
        task_statements(method_containing(program, c.anchor->id), c);
    for (const Stmt* st : tasks_stmts) {
      if (!st) {
        note_fallback(c, "task statement not found");
        return false;
      }
    }
    const std::set<int> own_ids(c.task_stmt_ids.begin(),
                                c.task_stmt_ids.end());
    // Tasks that ran to completion, each flag written by its own task
    // only; mw.run joins every task before it returns or throws.
    std::vector<char> finished(tasks_stmts.size(), 0);
    // Sequential fallback: the unfinished tasks in program order on this
    // thread. The interpreter alone would run the anchor and skip the
    // absorbed tasks.
    auto run_in_order = [&] {
      for (std::size_t k = 0; k < tasks_stmts.size(); ++k)
        if (!finished[k]) run_task(in, *tasks_stmts[k], frame, own_ids);
      return true;
    };
    if (const std::string why = sequential_reason(plan); !why.empty()) {
      note_fallback(c, why);
      return run_in_order();
    }
    rt::MasterWorker mw(static_cast<int>(param(c, ".workers", 0)));
    std::vector<std::function<void()>> tasks;
    tasks.reserve(tasks_stmts.size());
    for (std::size_t k = 0; k < tasks_stmts.size(); ++k)
      tasks.push_back([&in, st = tasks_stmts[k], &frame, &own_ids,
                       done = &finished[k]] {
        run_task(in, *st, frame, own_ids);
        *done = 1;
      });
    try {
      mw.run(tasks);
    } catch (const std::exception& e) {
      // Degradation contract: a finished task's writes stand and it does
      // not run again, so none is applied twice; a task the fault stopped
      // before its statement ran (an injected fault, or cancellation)
      // runs now. Only a task that faulted midway re-runs over its own
      // partial writes.
      note_fault_fallback(c, e.what());
      return run_in_order();
    }
    note_parallel(c, tasks.size());
    return true;
  }
};

ParallelPlanExecutor::ParallelPlanExecutor(
    const lang::Program& program, std::vector<Candidate> candidates,
    const rt::TuningConfig* tuning)
    : impl_(std::make_unique<Impl>(program, std::move(candidates), tuning)) {}

ParallelPlanExecutor::~ParallelPlanExecutor() = default;

Value ParallelPlanExecutor::run_main(analysis::InterpreterOptions options) {
  impl_->interp = std::make_unique<Interpreter>(impl_->program, nullptr, options);
  impl_->interp->set_interceptor(this);
  return impl_->interp->run_main();
}

std::string ParallelPlanExecutor::output() const {
  return impl_->interp ? impl_->interp->output() : std::string();
}

std::vector<PlanReport> ParallelPlanExecutor::reports() const {
  std::scoped_lock lock(impl_->report_mutex);
  std::vector<PlanReport> snapshot;
  snapshot.reserve(impl_->reports.size());
  for (const auto& [id, r] : impl_->reports) {
    (void)id;
    snapshot.push_back(r);
  }
  return snapshot;
}

bool ParallelPlanExecutor::intercept(const Stmt& st, Frame& frame,
                                     Interpreter& interp,
                                     ExecSignal* signal) {
  // Fast reject: almost every executed statement is not a plan anchor.
  using Role = Impl::Role;
  const auto id = static_cast<std::size_t>(st.id);
  const Role role = id < impl_->roles.size() ? impl_->roles[id] : Role::None;
  if (role == Role::None) return false;
  // Statements of the master/worker candidate currently running on this
  // thread execute normally (the tasks drive them through exec_stmt).
  if (g_active_master_worker && g_active_master_worker->count(st.id))
    return false;
  // Statements absorbed into a preceding master/worker anchor are skipped
  // in normal flow (the anchor's tasks already ran them).
  if (role == Role::Absorbed) {
    *signal = ExecSignal::Normal;
    return true;
  }
  auto it = impl_->plans.find(st.id);
  if (it == impl_->plans.end()) return false;
  const LoopPlan& plan = it->second;
  bool handled = false;
  switch (plan.candidate->kind) {
    case PatternKind::Pipeline:
      handled = impl_->run_pipeline(plan, frame, interp);
      break;
    case PatternKind::DataParallelLoop:
      handled = impl_->run_data_parallel(plan, frame, interp);
      break;
    case PatternKind::MasterWorker:
      handled = impl_->run_master_worker(plan, frame, interp);
      break;
  }
  if (handled) *signal = ExecSignal::Normal;
  return handled;  // false -> interpreter executes the loop sequentially
}

std::string gate_note(const tuning::SpeedupPrediction& prediction,
                      int hardware_threads) {
  // On one thread the loop and master/worker models price the parallel run
  // exactly as the sequential one (1.00x), while the plan still pays for
  // its stream and the pool's dispatch.
  const bool one_thread = hardware_threads < 2;
  if (!one_thread && prediction.default_speedup >= kGateSpeedup) return {};
  char speedup[32];
  std::snprintf(speedup, sizeof speedup, "%.2f", prediction.default_speedup);
  return std::string("predicted ") + speedup +
         "x at default knobs: " + prediction.leaves +
         (one_thread ? " (one hardware thread)" : "");
}

rt::TuningConfig default_tuning(const std::vector<Candidate>& candidates) {
  rt::TuningConfig config;
  for (const Candidate& c : candidates)
    for (const rt::TuningParameter& p : c.tuning) config.define(p);
  return config;
}

std::vector<RegionShape> plan_region_shapes(
    const lang::Program& program, const std::vector<Candidate>& candidates,
    const rt::TuningConfig* tuning) {
  std::vector<RegionShape> shapes;
  shapes.reserve(candidates.size());
  for (const Candidate& c : candidates) {
    if (!c.anchor) continue;
    RegionShape shape;
    shape.candidate = &c;
    shape.method = method_containing(program, c.anchor->id);

    if (c.kind == PatternKind::MasterWorker) {
      const std::vector<const Stmt*> tasks = task_statements(shape.method, c);
      for (std::size_t k = 0; k < tasks.size(); ++k) {
        StageShape stage;
        stage.label = "task" + std::to_string(k);
        if (tasks[k]) stage.stmts.push_back(tasks[k]);
        shape.stages.push_back(std::move(stage));
      }
      shapes.push_back(std::move(shape));
      continue;
    }

    const LoopPlan plan = analyze_loop_plan(c);
    shape.induction_slot = plan.induction_slot;
    shape.reduction_slot = plan.reduction_slot;
    if (plan.unsafe() || tuned_param(c, tuning, ".sequential", 0) != 0) {
      shape.sequential = true;
      shape.sequential_reason =
          plan.unsafe() ? plan.unsafe_reason : "SequentialExecution enabled";
    }

    if (c.kind == PatternKind::DataParallelLoop) {
      StageShape stage;
      stage.label = "body";
      stage.replication =
          static_cast<int>(tuned_param(c, tuning, ".threads", 0));
      if (stage.replication < 0) stage.replication = 0;
      stage.stmts = plan.body;
      shape.stages.push_back(std::move(stage));
    } else {
      // Pipeline: one stage shape per StageSpec, in section order. Stages
      // of a multi-member section run concurrently even on the same
      // element (the executor gives the section a worker crew); the
      // detector only groups stages it proved mutually independent.
      for (const auto& section : c.sections) {
        for (int idx : section) {
          const patterns::StageSpec& spec =
              c.stages[static_cast<std::size_t>(idx)];
          StageShape stage;
          stage.label = spec.label;
          stage.stmts = stage_statements(plan, spec);
          if (spec.replicable) {
            stage.replication = static_cast<int>(tuned_param(
                c, tuning, ".stage" + spec.label + ".replication", 1));
            if (stage.replication < 1) stage.replication = 1;
          }
          stage.preserve_order =
              tuned_param(c, tuning, ".stage" + spec.label + ".order", 1) != 0;
          shape.stages.push_back(std::move(stage));
        }
      }
    }
    shapes.push_back(std::move(shape));
  }
  return shapes;
}

}  // namespace patty::transform
