#include "transform/plan.hpp"

#include <cstdio>
#include <map>
#include <mutex>
#include <set>

#include "observe/metrics.hpp"
#include "patterns/region_plan.hpp"
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

/// The gate's threshold on the speedup predicted at default knobs: never a
/// slowdown (the SequentialExecution knob's promise, made automatically).
constexpr double kGateSpeedup = 1.0;

/// A candidate's region as the executor arms it: its plan under the
/// executor's tuning, and the gate's verdict for this machine.
struct Armed {
  patterns::RegionPlan plan;
  std::string gate_reason;  // gate_note() where it runs the region sequentially
  /// Master/worker: the tasks' ids, which interception skips while they run.
  std::set<int> task_ids;
};

}  // namespace

struct ParallelPlanExecutor::Impl {
  const lang::Program& program;
  std::vector<Candidate> candidates;
  const rt::TuningConfig* tuning;
  std::map<int, Armed> plans;  // anchor stmt id -> armed region
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
    // One plan per candidate, built once; every run reads it. Without a
    // tuning file each region runs at its default knobs, so the speedup
    // predicted there on this machine gates it; a tuning file is obeyed as
    // is, and nothing is predicted.
    std::vector<patterns::RegionPlan> region_plans;
    region_plans.reserve(candidates.size());
    for (const Candidate& c : candidates)
      region_plans.push_back(patterns::plan_region(c, tuning));
    const tuning::Hardware hw;
    std::vector<tuning::SpeedupPrediction> predictions;
    if (!tuning) predictions = tuning::predict_default_speedups(region_plans, hw);
    for (std::size_t i = 0; i < candidates.size(); ++i)
      arm(std::move(region_plans[i]),
          tuning ? nullptr : &predictions[i], hw.effective());
  }

  /// `pred` is the region's prediction at default knobs, null with a
  /// tuning file.
  void arm(patterns::RegionPlan plan, const tuning::SpeedupPrediction* pred,
           int hardware_threads) {
    const Candidate& c = *plan.candidate;
    if (!c.anchor) return;
    Armed armed;
    if (c.kind == PatternKind::MasterWorker) {
      // Every task but the anchor (which runs them all) is absorbed.
      for (const patterns::PlanMember& task : plan.stages.front().members) {
        const int id = task.stmts.front()->id;
        armed.task_ids.insert(id);
        roles[static_cast<std::size_t>(id)] = Role::Absorbed;
      }
    }
    armed.plan = std::move(plan);
    if (pred) armed.gate_reason = gate_note(*pred, hardware_threads);
    plans[c.anchor->id] = std::move(armed);
    roles[static_cast<std::size_t>(c.anchor->id)] = Role::Anchor;
  }

  /// Why this region runs sequentially, or empty: the plan's reason or the
  /// gate's.
  static const std::string& sequential_reason(const Armed& armed) {
    return armed.plan.sequential() ? armed.plan.sequential_reason
                                   : armed.gate_reason;
  }

  PlanReport& report_for(const Candidate& c) {
    // Caller holds report_mutex.
    PlanReport& r = reports[c.anchor->id];
    r.loop_stmt_id = c.anchor->id;
    r.kind = c.kind;
    return r;
  }

  void note_fallback(const Candidate& c, const std::string& why) {
    std::scoped_lock lock(report_mutex);
    PlanReport& r = report_for(c);
    r.ran_parallel = false;
    r.note = why;
    r.runs += 1;
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
  void write_back(const patterns::RegionPlan& plan,
                  const std::vector<Elem>& ordered, Frame& outer) {
    for (const Elem& e : ordered)
      for (int slot : plan.writeback_slots)
        outer.locals[static_cast<std::size_t>(slot)] =
            e.frame->locals[static_cast<std::size_t>(slot)];
  }

  // --- Pattern execution ------------------------------------------------------

  /// The runtime stage of one resolved plan stage.
  rt::Pipeline<Elem>::Stage runtime_stage(const patterns::PlanStage& stage,
                                          Interpreter& in) {
    rt::Pipeline<Elem>::Stage out;
    out.name = stage.label;
    out.replication = stage.replication;
    out.preserve_order = stage.preserve_order;
    const std::vector<patterns::PlanMember>& members = stage.members;
    if (members.size() == 1) {
      out.fn = [this, &in, &stmts = members.front().stmts](Elem& e) {
        run_stmts(in, stmts, *e.frame);
      };
      return out;
    }
    // A section: its members run concurrently on each element. The stage
    // runs on a pipeline stage thread, which is not a pool worker, so a
    // join on the shared pool there blocks instead of helping
    // (ThreadPool::wait_on); the members get a dedicated crew instead.
    out.fn = [this, &in, &members](Elem& e) {
      rt::MasterWorker mw(static_cast<int>(members.size()));
      std::vector<std::function<void()>> tasks;
      tasks.reserve(members.size());
      for (const patterns::PlanMember& m : members)
        tasks.push_back(
            [this, &in, &m, &e] { run_stmts(in, m.stmts, *e.frame); });
      mw.run(tasks);
    };
    return out;
  }

  bool run_pipeline(const Armed& armed, Frame& outer, Interpreter& in) {
    const patterns::RegionPlan& plan = armed.plan;
    const Candidate& c = *plan.candidate;
    if (const std::string& why = sequential_reason(armed); !why.empty()) {
      note_fallback(c, why);
      return false;
    }
    std::vector<Elem> elements;
    if (!generate_stream(*c.anchor, outer, in, &elements)) {
      note_fallback(c, "stream generation failed for this loop form");
      return false;
    }

    std::vector<rt::Pipeline<Elem>::Stage> rt_stages;
    rt_stages.reserve(plan.resolved.size());
    for (const patterns::PlanStage& stage : plan.resolved)
      rt_stages.push_back(runtime_stage(stage, in));
    rt::PipelineConfig cfg;
    cfg.buffer_capacity = plan.buffer;
    cfg.batch_size = plan.batch;
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

  bool run_data_parallel(const Armed& armed, Frame& outer, Interpreter& in) {
    const patterns::RegionPlan& plan = armed.plan;
    const Candidate& c = *plan.candidate;
    if (const std::string& why = sequential_reason(armed); !why.empty()) {
      note_fallback(c, why);
      return false;
    }
    std::vector<Elem> elements;
    if (!generate_stream(*c.anchor, outer, in, &elements)) {
      note_fallback(c, "stream generation failed for this loop form");
      return false;
    }

    // Reduction accumulators start at the identity in every element frame.
    const auto acc_slot = static_cast<std::size_t>(plan.reduction_slot);
    const bool mul = plan.reduction_op == lang::BinaryOp::Mul;
    if (plan.reduction_slot >= 0) {
      for (Elem& e : elements) {
        Value& acc = e.frame->locals[acc_slot];
        acc = acc.is_double() ? Value::of_double(mul ? 1.0 : 0.0)
                              : Value::of_int(mul ? 1 : 0);
      }
    }

    const patterns::PlanStage& body = plan.stages.front();
    rt::ParallelForTuning pf;
    pf.threads = body.replication;
    pf.grain = plan.grain;
    try {
      rt::parallel_for(
          0, static_cast<std::int64_t>(elements.size()),
          [&](std::int64_t i) {
            run_stmts(in, body.members.front().stmts,
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
      Value& acc = outer.locals[acc_slot];
      for (const Elem& e : elements) {
        const Value& x = e.frame->locals[acc_slot];
        if (acc.is_double() || x.is_double())
          acc = Value::of_double(mul ? acc.to_double() * x.to_double()
                                     : acc.to_double() + x.to_double());
        else
          acc = Value::of_int(mul ? acc.as_int() * x.as_int()
                                  : acc.as_int() + x.as_int());
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

  bool run_master_worker(const Armed& armed, Frame& frame, Interpreter& in) {
    const Candidate& c = *armed.plan.candidate;
    const std::vector<patterns::PlanMember>& members =
        armed.plan.stages.front().members;
    const std::set<int>& own_ids = armed.task_ids;
    // Tasks that ran to completion, each flag written by its own task
    // only; mw.run joins every task before it returns or throws.
    std::vector<char> finished(members.size(), 0);
    // Sequential fallback: the unfinished tasks in program order on this
    // thread. The interpreter alone would run the anchor and skip the
    // absorbed tasks.
    auto run_in_order = [&] {
      for (std::size_t k = 0; k < members.size(); ++k)
        if (!finished[k])
          run_task(in, *members[k].stmts.front(), frame, own_ids);
      return true;
    };
    if (const std::string& why = sequential_reason(armed); !why.empty()) {
      note_fallback(c, why);
      return run_in_order();
    }
    rt::MasterWorker mw(armed.plan.workers);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(members.size());
    for (std::size_t k = 0; k < members.size(); ++k)
      tasks.push_back([&in, st = members[k].stmts.front(), &frame, &own_ids,
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

Value ParallelPlanExecutor::run_main() {
  impl_->interp = std::make_unique<Interpreter>(impl_->program);
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
  const Armed& armed = it->second;
  bool handled = false;
  switch (armed.plan.candidate->kind) {
    case PatternKind::Pipeline:
      handled = impl_->run_pipeline(armed, frame, interp);
      break;
    case PatternKind::DataParallelLoop:
      handled = impl_->run_data_parallel(armed, frame, interp);
      break;
    case PatternKind::MasterWorker:
      handled = impl_->run_master_worker(armed, frame, interp);
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

}  // namespace patty::transform
