#include "patterns/detector.hpp"

#include <algorithm>
#include <cstdio>
#include <set>

#include "support/diagnostics.hpp"

namespace patty::patterns {

using analysis::Dep;
using analysis::DepKind;
using analysis::SemanticModel;
using lang::Stmt;
using lang::StmtKind;

const char* pattern_kind_name(PatternKind kind) {
  switch (kind) {
    case PatternKind::Pipeline: return "pipeline";
    case PatternKind::DataParallelLoop: return "data-parallel loop";
    case PatternKind::MasterWorker: return "master/worker";
  }
  return "?";
}

std::string stage_label(std::size_t index) {
  std::string label(1, static_cast<char>('A' + index % 26));
  if (index >= 26) label += std::to_string(index / 26);
  return label;
}

namespace {

/// Replication ceiling offered to the tuner: the top of every replication,
/// worker-thread and crew-size knob's domain.
constexpr int kMaxReplication = 8;

/// PLCD: control statements that affect other stream elements.
/// `allow_continue`: a top-level continue only skips its own element and is
/// admissible for data-parallel loops, but breaks the fixed processing
/// chain of a pipeline.
bool control_violation(const Stmt& loop, bool allow_continue,
                       std::string* what) {
  // break/continue that target the analyzed loop itself (depth 0) affect
  // other stream elements; the same statements inside a *nested* loop only
  // affect that inner loop and are harmless. `return` always escapes.
  struct DepthWalk {
    bool bad = false;
    std::string found;
    bool allow_continue;

    void walk(const Stmt& st, int depth) {
      if (bad) return;
      switch (st.kind) {
        case StmtKind::Break:
          if (depth == 0) { bad = true; found = "break"; }
          break;
        case StmtKind::Continue:
          if (depth == 0 && !allow_continue) { bad = true; found = "continue"; }
          break;
        case StmtKind::Return:
          bad = true;
          found = "return";
          break;
        case StmtKind::Block:
          for (const auto& s : st.as<lang::Block>().stmts) walk(*s, depth);
          break;
        case StmtKind::If: {
          const auto& i = st.as<lang::If>();
          walk(*i.then_branch, depth);
          if (i.else_branch) walk(*i.else_branch, depth);
          break;
        }
        case StmtKind::While:
          walk(*st.as<lang::While>().body, depth + 1);
          break;
        case StmtKind::For:
          walk(*st.as<lang::For>().body, depth + 1);
          break;
        case StmtKind::Foreach:
          walk(*st.as<lang::Foreach>().body, depth + 1);
          break;
        default:
          break;
      }
    }
  };
  DepthWalk w{.allow_continue = allow_continue};
  for (const Stmt* top : analysis::loop_body_statements(loop)) {
    w.walk(*top, 0);
    if (w.bad) break;
  }
  if (w.bad && what) *what = w.found;
  return w.bad;
}

/// Index of a top-level body statement by id, or -1.
int body_index(const std::vector<const Stmt*>& body, int stmt_id) {
  for (std::size_t i = 0; i < body.size(); ++i)
    if (body[i]->id == stmt_id) return static_cast<int>(i);
  return -1;
}

/// Inclusive profiled cost of one statement over the whole run.
double inclusive_cost(const SemanticModel& model, const Stmt& st) {
  if (!model.profile()) return 0.0;
  return static_cast<double>(
      model.profile()->stmt_profile(st.id).inclusive_cost);
}

/// Sum of inclusive profiled cost over a set of statements.
double stage_cost(const SemanticModel& model,
                  const std::vector<const Stmt*>& body,
                  const std::vector<int>& indices) {
  double total = 0.0;
  for (int i : indices)
    total += inclusive_cost(model, *body[static_cast<std::size_t>(i)]);
  return total;
}

/// Record a profiled loop's cost-model leaves on its candidate: iterations
/// per entry, and the body's inclusive cost (`body_cost`, summed over the
/// whole run) per iteration. A loop the profile never iterated keeps none.
void record_loop_leaves(const SemanticModel& model, const Stmt& loop,
                        double body_cost, Candidate* cand) {
  if (!model.profile()) return;
  const analysis::Profiler::LoopProfile* lp =
      model.profile()->loop_profile(loop.id);
  if (!lp || lp->entries == 0 || lp->total_iterations == 0) return;
  const double iterations = static_cast<double>(lp->total_iterations);
  cand->trips_per_entry = iterations / static_cast<double>(lp->entries);
  cand->cost_per_iteration = body_cost / iterations;
}

/// Does this statement subtree write to the output stream (print)?
bool stmt_writes_io(const analysis::EffectAnalysis& effects, const Stmt& st) {
  return effects.stmt_effects(st).writes.count(analysis::AbsLoc::io()) > 0;
}

/// The loop's name prefix for tuning parameters:
/// "<Class>.<method>.<pattern>@<line>".
std::string loop_prefix(const SemanticModel& model, const Stmt& loop,
                        const char* pattern) {
  const lang::MethodDecl* m = model.method_of(loop);
  std::string prefix;
  if (m) {
    if (m->owner) prefix += m->owner->name + ".";
    prefix += m->name + ".";
  }
  prefix += pattern;
  prefix += "@" + std::to_string(loop.range.begin.line);
  return prefix;
}

/// Intra-iteration dependence between two top-level statements?
bool sections_independent(const std::vector<Dep>& deps,
                          const std::vector<const Stmt*>& body,
                          const std::vector<int>& a,
                          const std::vector<int>& b) {
  std::set<int> ids_a, ids_b;
  for (int i : a) ids_a.insert(body[static_cast<std::size_t>(i)]->id);
  for (int i : b) ids_b.insert(body[static_cast<std::size_t>(i)]->id);
  for (const Dep& d : deps) {
    if ((ids_a.count(d.from_id) && ids_b.count(d.to_id)) ||
        (ids_b.count(d.from_id) && ids_a.count(d.to_id)))
      return false;
  }
  return true;
}

}  // namespace

PipelineOutcome detect_pipeline(const SemanticModel& model, const Stmt& loop,
                                const DetectionOptions& options) {
  PipelineOutcome outcome;
  const std::vector<const Stmt*> body = analysis::loop_body_statements(loop);

  // PLPL: a loop with at least two top-level statements can form stages.
  if (body.size() < 2) {
    outcome.rejection = {&loop, "PLPL",
                         "loop body has fewer than two statements"};
    return outcome;
  }

  // PLCD: no control flow that affects other stream elements.
  std::string what;
  if (control_violation(loop, /*allow_continue=*/false, &what)) {
    outcome.rejection = {&loop, "PLCD",
                         "'" + what + "' affects the processing chain"};
    return outcome;
  }

  // PLDD: merge statements connected by loop-carried dependences, together
  // with everything in between (interval merging over body positions).
  const std::vector<Dep>& deps =
      model.loop_dependences(loop, options.optimistic);

  // Carried deps between positions a < b glue the whole interval [a, b]
  // into one stage (paper: "subsume si, sk, and all statements in between").
  std::vector<std::pair<int, int>> merges;
  for (const Dep& d : deps) {
    if (!d.carried) continue;
    const int a = body_index(body, d.from_id);
    const int b = body_index(body, d.to_id);
    if (a < 0 || b < 0) continue;
    if (a != b) merges.emplace_back(std::min(a, b), std::max(a, b));
  }
  // Interval union: mark boundaries that must stay glued.
  std::vector<bool> glued(body.size(), false);  // glued[i]: i and i+1 together
  for (auto [lo, hi] : merges)
    for (int i = lo; i < hi; ++i) glued[static_cast<std::size_t>(i)] = true;

  // Build stages as maximal glued runs.
  std::vector<std::vector<int>> stage_indices;
  std::vector<int> current = {0};
  for (std::size_t i = 1; i < body.size(); ++i) {
    if (glued[i - 1]) {
      current.push_back(static_cast<int>(i));
    } else {
      stage_indices.push_back(std::move(current));
      current = {static_cast<int>(i)};
    }
  }
  stage_indices.push_back(std::move(current));

  if (stage_indices.size() < 2) {
    outcome.rejection = {&loop, "PLDD",
                         "loop-carried dependences collapse the body into a "
                         "single stage"};
    return outcome;
  }

  // Which statements are touched by any carried dep (incl. self)?
  std::set<int> carried_ids;
  for (const Dep& d : deps) {
    if (!d.carried) continue;
    carried_ids.insert(d.from_id);
    carried_ids.insert(d.to_id);
  }

  Candidate cand;
  cand.kind = PatternKind::Pipeline;
  cand.anchor = &loop;
  cand.method = model.method_of(loop);
  cand.runtime_share = model.runtime_share(loop);

  double body_total = 0.0;
  for (const auto& idxs : stage_indices)
    body_total += stage_cost(model, body, idxs);
  record_loop_leaves(model, loop, body_total, &cand);

  for (std::size_t s = 0; s < stage_indices.size(); ++s) {
    StageSpec spec;
    spec.label = stage_label(s);
    bool touched = false;
    for (int i : stage_indices[s]) {
      const Stmt* st = body[static_cast<std::size_t>(i)];
      spec.stmt_ids.push_back(st->id);
      if (carried_ids.count(st->id)) touched = true;
      if (stmt_writes_io(model.effects(), *st)) spec.writes_io = true;
    }
    spec.replicable = !touched && !spec.writes_io;
    const double cost = stage_cost(model, body, stage_indices[s]);
    spec.runtime_share = body_total > 0.0 ? cost / body_total : 0.0;
    cand.stages.push_back(std::move(spec));
  }

  // Section grouping for master/worker inside the pipeline: greedily extend
  // a section while the next stage is independent of every stage in it
  // (intra-iteration deps only; carried deps already shaped the stages).
  std::vector<Dep> intra;
  for (const Dep& d : deps)
    if (!d.carried) intra.push_back(d);
  std::vector<std::vector<std::size_t>> sections;
  std::vector<std::size_t> section = {0};
  for (std::size_t s = 1; s < cand.stages.size(); ++s) {
    bool independent = true;
    for (std::size_t prev : section) {
      if (!sections_independent(intra, body, stage_indices[prev],
                                stage_indices[s])) {
        independent = false;
        break;
      }
    }
    if (independent) {
      section.push_back(s);
    } else {
      sections.push_back(std::move(section));
      section = {s};
    }
  }
  sections.push_back(std::move(section));
  cand.sections = std::move(sections);

  // TADL expression.
  std::string tadl;
  for (std::size_t g = 0; g < cand.sections.size(); ++g) {
    if (g) tadl += " => ";
    const auto& sec = cand.sections[g];
    if (sec.size() > 1) tadl += "(";
    for (std::size_t k = 0; k < sec.size(); ++k) {
      if (k) tadl += " || ";
      tadl += cand.stages[sec[k]].label;
      if (cand.stages[sec[k]].replicable) tadl += "+";
    }
    if (sec.size() > 1) tadl += ")";
  }
  cand.tadl = tadl;

  // PLTP: tuning parameters.
  const std::string prefix = loop_prefix(model, loop, "pipeline");
  auto add_param = [&](std::string name, rt::TuningKind kind,
                       std::int64_t value, std::int64_t min, std::int64_t max,
                       std::string desc) {
    cand.tuning.push_back({prefix + "." + std::move(name), kind, value, min,
                           max, 1, loop.range.str(), std::move(desc)});
  };
  for (std::size_t s = 0; s < cand.stages.size(); ++s) {
    const StageSpec& spec = cand.stages[s];
    if (spec.replicable) {
      add_param("stage" + spec.label + ".replication", rt::TuningKind::Int, 1,
                1, kMaxReplication,
                "StageReplication for stage " + spec.label);
      add_param("stage" + spec.label + ".order", rt::TuningKind::Bool, 1, 0, 1,
                "OrderPreservation for replicated stage " + spec.label);
    }
    if (s + 1 < cand.stages.size()) {
      add_param("fuse" + spec.label + cand.stages[s + 1].label,
                rt::TuningKind::Bool, 0, 0, 1,
                "StageFusion of stages " + spec.label + " and " +
                    cand.stages[s + 1].label);
    }
  }
  add_param("sequential", rt::TuningKind::Bool, 0, 0, 1,
            "SequentialExecution fallback for short streams");
  // Coarse domain: buffer depth has secondary impact, so the tuner should
  // not burn its budget sweeping it value by value.
  add_param("buffer", rt::TuningKind::Int, 16, 1, 49,
            "capacity of inter-stage buffers");
  cand.tuning.back().step = 16;
  // BatchSize: elements moved per queue operation. Amortizes stage-queue
  // synchronization on fine-grained streams; coarse domain {1,5,9} for the
  // same budget reason as the buffer depth.
  add_param("batch", rt::TuningKind::Int, 1, 1, 9,
            "BatchSize: elements per stage-queue operation");
  cand.tuning.back().step = 4;

  cand.reason = "loop with " + std::to_string(cand.stages.size()) +
                " stages, " + std::to_string(deps.size()) + " dependences (" +
                (options.optimistic && model.loop_was_profiled(loop)
                     ? "observed"
                     : "static") +
                ")";
  outcome.candidate = std::move(cand);
  return outcome;
}

PipelineOutcome detect_data_parallel(const SemanticModel& model,
                                     const Stmt& loop,
                                     const DetectionOptions& options) {
  PipelineOutcome outcome;
  if (loop.kind == StmtKind::While) {
    outcome.rejection = {&loop, "PLPL",
                         "while-loops have no decomposable iteration space"};
    return outcome;
  }
  std::string what;
  if (control_violation(loop, /*allow_continue=*/true, &what)) {
    outcome.rejection = {&loop, "PLCD", "'" + what + "' escapes the loop"};
    return outcome;
  }

  const std::vector<const Stmt*> body = analysis::loop_body_statements(loop);
  if (body.empty()) {
    outcome.rejection = {&loop, "PLPL", "empty loop body"};
    return outcome;
  }
  const std::vector<Dep>& deps =
      model.loop_dependences(loop, options.optimistic);

  // Classify carried dependences: none -> plain data-parallel;
  // all on a single associative accumulator statement -> reduction.
  int reduction_stmt = -1;
  for (const Dep& d : deps) {
    if (!d.carried) continue;
    if (d.from_id == d.to_id) {
      const Stmt* st = model.stmt_by_id(d.from_id);
      // Reduction shape: `x = x op <expr>` with op in {+, *, min, max} and
      // x a scalar local or field.
      bool is_reduction_stmt = false;
      if (st && st->kind == StmtKind::Assign) {
        const auto& a = st->as<lang::Assign>();
        if (a.target->kind == lang::ExprKind::VarRef &&
            a.value->kind == lang::ExprKind::Binary) {
          const auto& bin = a.value->as<lang::Binary>();
          const auto& tgt = a.target->as<lang::VarRef>();
          auto matches_target = [&](const lang::Expr& e) {
            if (e.kind != lang::ExprKind::VarRef) return false;
            const auto& r = e.as<lang::VarRef>();
            return r.slot == tgt.slot && r.field_index == tgt.field_index;
          };
          if ((bin.op == lang::BinaryOp::Add ||
               bin.op == lang::BinaryOp::Mul) &&
              (matches_target(*bin.lhs) || matches_target(*bin.rhs))) {
            is_reduction_stmt = true;
          }
        }
      }
      if (is_reduction_stmt &&
          (reduction_stmt == -1 || reduction_stmt == st->id)) {
        reduction_stmt = st->id;
        continue;
      }
      outcome.rejection = {&loop, "PLDD",
                           "carried dependence " + d.str() +
                               " is not a recognized reduction"};
      return outcome;
    }
    outcome.rejection = {&loop, "PLDD",
                         "loop-carried dependence between iterations: " +
                             d.str()};
    return outcome;
  }

  // PLDS: the loop passed on *observed* independence. If an array write
  // subscripts through memory (another element, a field, a call result),
  // the profiled input may be a collision-free special case — e.g. an
  // identity permutation — of an aliasing scatter. Only when the static
  // analysis disagrees (a carried dependence survives the induction
  // refinement) is the observed evidence decisive, and then we do not
  // trust it for memory-derived subscripts.
  if (options.scatter_guard && options.optimistic &&
      model.loop_was_profiled(loop)) {
    bool memory_subscript_write = false;
    for (const Stmt* top : body) {
      lang::for_each_stmt(*top, [&](const Stmt& st) {
        if (st.kind != StmtKind::Assign) return;
        const auto& a = st.as<lang::Assign>();
        if (a.target->kind != lang::ExprKind::IndexAccess) return;
        const auto& ix = a.target->as<lang::IndexAccess>();
        lang::for_each_expr_in(*ix.index, [&](const lang::Expr& e) {
          if (e.kind == lang::ExprKind::IndexAccess ||
              e.kind == lang::ExprKind::FieldAccess ||
              e.kind == lang::ExprKind::Call ||
              (e.kind == lang::ExprKind::VarRef &&
               !e.as<lang::VarRef>().is_local()))
            memory_subscript_write = true;
        });
      });
      if (memory_subscript_write) break;
    }
    if (memory_subscript_write) {
      bool static_carried = false;
      for (const Dep& d : model.loop_dependences(loop, /*optimistic=*/false))
        if (d.carried) static_carried = true;
      if (static_carried) {
        outcome.rejection = {&loop, "PLDS",
                             "array write subscripted through memory; "
                             "observed independence may not generalize "
                             "beyond the profiled input"};
        return outcome;
      }
    }
  }

  Candidate cand;
  cand.kind = PatternKind::DataParallelLoop;
  cand.anchor = &loop;
  cand.method = model.method_of(loop);
  cand.runtime_share = model.runtime_share(loop);
  cand.is_reduction = reduction_stmt >= 0;
  cand.reduction_stmt_id = reduction_stmt;
  cand.tadl = cand.is_reduction ? "reduce(ALL+)" : "ALL+";
  cand.reason = cand.is_reduction
                    ? "independent iterations up to one associative reduction"
                    : "no loop-carried dependences between iterations";
  double body_cost = 0.0;
  for (const Stmt* top : body) body_cost += inclusive_cost(model, *top);
  record_loop_leaves(model, loop, body_cost, &cand);

  const std::string prefix = loop_prefix(model, loop, "parfor");
  const std::string where = loop.range.str();
  cand.tuning.push_back({prefix + ".threads", rt::TuningKind::Int, 0, 0,
                         kMaxReplication, 1, where,
                         "worker threads (0 = hardware)"});
  cand.tuning.push_back({prefix + ".grain", rt::TuningKind::Int, 0, 0, 256, 64,
                         where, "chunk size (0 = auto)"});
  cand.tuning.push_back({prefix + ".sequential", rt::TuningKind::Bool, 0, 0, 1,
                         1, where, "SequentialExecution fallback"});

  outcome.candidate = std::move(cand);
  return outcome;
}

std::vector<Candidate> detect_master_worker(const SemanticModel& model) {
  std::vector<Candidate> out;
  const lang::Program& program = model.program();
  for (const auto& cls : program.classes) {
    for (const auto& method : cls->methods) {
      // Consider every block in the method.
      std::vector<const lang::Block*> blocks;
      lang::for_each_stmt(*method->body, [&](const Stmt& st) {
        if (st.kind == StmtKind::Block)
          blocks.push_back(&st.as<lang::Block>());
      });
      for (const lang::Block* block : blocks) {
        // Candidate statements: contain a user-method call (worth a task).
        std::vector<const Stmt*> stmts;
        for (const auto& s : block->stmts)
          if (s->kind != StmtKind::Annotation) stmts.push_back(s.get());

        auto is_task_like = [&](const Stmt& st) {
          if (st.kind != StmtKind::VarDecl && st.kind != StmtKind::Assign &&
              st.kind != StmtKind::ExprStmt)
            return false;
          bool has_call = false;
          lang::for_each_expr(st, [&](const lang::Expr& e) {
            if (e.kind == lang::ExprKind::Call &&
                e.as<lang::Call>().resolved != nullptr)
              has_call = true;
          });
          return has_call;
        };
        auto independent = [&](const Stmt& a, const Stmt& b) {
          const analysis::EffectSet ea = model.effects().stmt_effects(a);
          const analysis::EffectSet eb = model.effects().stmt_effects(b);
          return !ea.writes_intersect_reads(eb) &&
                 !eb.writes_intersect_reads(ea) &&
                 !ea.writes_intersect_writes(eb);
        };

        std::size_t i = 0;
        while (i < stmts.size()) {
          if (!is_task_like(*stmts[i])) {
            ++i;
            continue;
          }
          std::vector<const Stmt*> run = {stmts[i]};
          std::size_t j = i + 1;
          while (j < stmts.size() && is_task_like(*stmts[j])) {
            bool ok = true;
            for (const Stmt* prev : run) {
              if (!independent(*prev, *stmts[j])) {
                ok = false;
                break;
              }
            }
            if (!ok) break;
            run.push_back(stmts[j]);
            ++j;
          }
          if (run.size() >= 2) {
            Candidate cand;
            cand.kind = PatternKind::MasterWorker;
            cand.anchor = run.front();
            cand.method = method.get();
            double share = 0.0;
            for (const Stmt* st : run) {
              cand.task_stmt_ids.push_back(st->id);
              share += model.runtime_share(*st);
            }
            cand.runtime_share = share;
            // Each task's cost per execution; none unless the profile ran
            // every task.
            for (const Stmt* st : run) {
              const std::uint64_t runs =
                  model.profile()
                      ? model.profile()->stmt_profile(st->id).exec_count
                      : 0;
              if (runs == 0) {
                cand.task_costs.clear();
                break;
              }
              cand.task_costs.push_back(inclusive_cost(model, *st) /
                                        static_cast<double>(runs));
            }
            std::string tadl;
            for (std::size_t k = 0; k < run.size(); ++k) {
              if (k) tadl += " || ";
              tadl += stage_label(k);
            }
            cand.tadl = "(" + tadl + ")";
            cand.reason = std::to_string(run.size()) +
                          " consecutive independent call statements";
            cand.tuning.push_back(
                {loop_prefix(model, *run.front(), "masterworker") + ".workers",
                 rt::TuningKind::Int, 0, 0, kMaxReplication, 1,
                 run.front()->range.str(),
                 "worker crew size (0 = shared pool)"});
            out.push_back(std::move(cand));
          }
          i = j > i ? j : i + 1;
        }
      }
    }
  }
  return out;
}

namespace {

/// Match the catalog against one loop: data-parallel first (the stronger
/// pattern — fully independent iteration space, no buffers), then
/// pipeline. The model's dependence cache absorbs the repeated
/// loop_dependences queries both detectors make.
PipelineOutcome match_loop(const SemanticModel& model,
                           const analysis::LoopInfo& li,
                           const DetectionOptions& options) {
  PipelineOutcome dp = detect_data_parallel(model, *li.loop, options);
  if (dp.candidate) {
    if (dp.candidate->runtime_share < options.min_runtime_share)
      return {};  // matched but below threshold: no candidate, no rejection
    return dp;
  }
  // A PLDS verdict is a safety rejection, not a shape mismatch: the loop
  // must not run in parallel at all, so do not offer it as a pipeline and
  // keep the guard's reason visible.
  if (dp.rejection && dp.rejection->rule == "PLDS") return dp;
  PipelineOutcome pl = detect_pipeline(model, *li.loop, options);
  if (pl.candidate) {
    if (pl.candidate->runtime_share < options.min_runtime_share) return {};
    return pl;
  }
  // Keep the more informative rejection (pipeline's, if both failed).
  if (pl.rejection) return pl;
  return dp;
}

}  // namespace

DetectionResult detect_all(const SemanticModel& model,
                           DetectionOptions options) {
  DetectionResult result;
  for (const analysis::LoopInfo& li : model.loops()) {
    PipelineOutcome o = match_loop(model, li, options);
    if (o.candidate)
      result.candidates.push_back(std::move(*o.candidate));
    else if (o.rejection)
      result.rejected.push_back(std::move(*o.rejection));
  }
  for (Candidate& mw : detect_master_worker(model)) {
    if (mw.runtime_share >= options.min_runtime_share)
      result.candidates.push_back(std::move(mw));
  }

  std::stable_sort(result.candidates.begin(), result.candidates.end(),
                   [](const Candidate& a, const Candidate& b) {
                     return a.runtime_share > b.runtime_share;
                   });
  return result;
}

std::string detection_fingerprint(const DetectionResult& result) {
  std::string fp;
  char buf[64];
  auto num = [&](double v) {
    // %.17g round-trips doubles exactly: byte-equal fingerprints mean
    // bit-equal runtime shares, not merely close ones.
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    fp += buf;
  };
  for (const Candidate& c : result.candidates) {
    fp += pattern_kind_name(c.kind);
    fp += '@';
    fp += c.location();
    fp += " share=";
    num(c.runtime_share);
    fp += " reason=";
    fp += c.reason;
    for (const StageSpec& s : c.stages) {
      fp += " stage:";
      fp += s.label;
      fp += s.replicable ? "+r" : "";
      fp += s.writes_io ? "+io" : "";
      fp += "=";
      num(s.runtime_share);
      for (int id : s.stmt_ids) {
        fp += ',';
        fp += std::to_string(id);
      }
    }
    for (const auto& section : c.sections) {
      fp += " sec:";
      for (std::size_t idx : section) {
        fp += std::to_string(idx);
        fp += '|';
      }
    }
    if (c.is_reduction) {
      fp += " red=";
      fp += std::to_string(c.reduction_stmt_id);
    }
    for (int id : c.task_stmt_ids) {
      fp += " task=";
      fp += std::to_string(id);
    }
    for (const rt::TuningParameter& p : c.tuning) {
      fp += " tune:";
      fp += p.name;
      fp += '=';
      fp += std::to_string(p.value);
      fp += '[';
      fp += std::to_string(p.min);
      fp += "..";
      fp += std::to_string(p.max);
      fp += ']';
    }
    fp += " tadl=";
    fp += c.tadl;
    fp += '\n';
  }
  for (const RejectedLoop& r : result.rejected) {
    fp += "rejected@";
    fp += r.loop ? r.loop->range.str() : "<unknown>";
    fp += ' ';
    fp += r.rule;
    fp += ": ";
    fp += r.reason;
    fp += '\n';
  }
  return fp;
}

}  // namespace patty::patterns
