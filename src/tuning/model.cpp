#include "tuning/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <numeric>
#include <set>

#include "observe/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "tuning/search_internal.hpp"

namespace patty::tuning {

namespace {

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

std::string pct(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", v * 100.0);
  return buf;
}

double clamp(double v, double lo, double hi) {
  return std::max(lo, std::min(hi, v));
}

// ---- Knob slots -----------------------------------------------------------

/// Slot of a knob the bound space lacks: the model's default applies.
constexpr int kAbsent = -1;

/// Position of `name` in the sorted `names`, or kAbsent.
int slot_of(const std::vector<std::string>& names, const std::string& name) {
  const auto it = std::lower_bound(names.begin(), names.end(), name);
  return it != names.end() && *it == name
             ? static_cast<int>(it - names.begin())
             : kAbsent;
}

/// The knob value in `slot`, or the model's default for an absent knob.
std::int64_t knob(const std::int64_t* values, int slot,
                  std::int64_t fallback) {
  return slot == kAbsent ? fallback : values[slot];
}

// ---- Pipeline model -------------------------------------------------------

class PipelineModel final : public CostModel {
 public:
  explicit PipelineModel(PipelineModelParams p) : p_(std::move(p)) {}

  [[nodiscard]] std::string family() const override { return "pipeline"; }

  [[nodiscard]] std::unique_ptr<BoundCost> bind(
      const std::vector<std::string>& names) const override {
    auto b = std::make_unique<Bound>(p_);
    const std::string& px = p_.knob_prefix;
    b->sequential = slot_of(names, px + "sequential");
    b->batch = slot_of(names, px + "batch");
    b->buffer = slot_of(names, px + "buffer");
    for (std::size_t i = 0; i < p_.stages.size(); ++i) {
      const StageCost& st = p_.stages[i];
      Bound::Stage& s = b->stages.emplace_back();
      s.replication = slot_of(names, px + "stage" + st.label + ".replication");
      s.order = slot_of(names, px + "stage" + st.label + ".order");
      if (i > 0)
        s.fuse_prev =
            slot_of(names, px + "fuse" + p_.stages[i - 1].label + st.label);
      if (st.inner) s.inner = st.inner->bind(names);
    }
    return b;
  }

  [[nodiscard]] std::string describe() const override {
    std::string s = "pipeline N=" + num(p_.elements) + " stages[";
    for (std::size_t i = 0; i < p_.stages.size(); ++i) {
      if (i) s += ' ';
      s += p_.stages[i].label + "=" + num(p_.stages[i].service_us) + "us";
      if (p_.stages[i].inner) s += "(+inner " + p_.stages[i].inner->family() + ")";
    }
    s += "] transfer=" + num(p_.transfer_us) +
         "us reorder=" + num(p_.reorder_us) +
         "us startup=" + num(p_.startup_us) + "us";
    return s;
  }

 private:
  struct Bound final : BoundCost {
    struct Stage {
      int replication = kAbsent;
      int order = kAbsent;
      int fuse_prev = kAbsent;  // fuse<previous label><label>; not stage 0
      std::unique_ptr<BoundCost> inner;
    };
    const PipelineModelParams& p;
    int sequential = kAbsent;
    int batch = kAbsent;
    int buffer = kAbsent;
    std::vector<Stage> stages;

    explicit Bound(const PipelineModelParams& params) : p(params) {}

    /// Effective per-stage service: own body plus the nested region's
    /// predicted cost per outer item (TADL composition).
    double service(std::size_t i, const std::int64_t* v, double c) const {
      return p.stages[i].service_us +
             (stages[i].inner ? stages[i].inner->cost(v, c) : 0.0);
    }

    [[nodiscard]] double cost(const std::int64_t* v,
                              double c) const override {
      const double n = std::max(1.0, p.elements);
      if (knob(v, sequential, 0) != 0) {
        double total_svc = 0.0;
        for (std::size_t i = 0; i < stages.size(); ++i)
          total_svc += service(i, v, c);
        return p.startup_us + n * total_svc;
      }

      // StageFusion merges adjacent stages (chains merge runs), as the
      // region plan does: service times sum, replication takes the max of
      // the members' knobs, or 1 where a member is non-replicable, and
      // order preservation is ORed across replicated members.
      std::size_t groups = 0;
      for (std::size_t i = 0; i < stages.size(); ++i)
        if (knob(v, stages[i].fuse_prev, 0) == 0) ++groups;

      const double batch_n =
          static_cast<double>(std::max<std::int64_t>(1, knob(v, batch, 1)));
      const double buffer_n =
          static_cast<double>(std::max<std::int64_t>(1, knob(v, buffer, 16)));
      // Queue hop per item per edge: batching divides it, shallow buffers
      // add back-pressure stalls on top.
      const double transfer =
          p.transfer_us * (1.0 / batch_n) * (1.0 + 2.0 / buffer_n);
      const double edges = static_cast<double>(groups - 1);

      double workers = 0.0;
      double fill = 0.0;
      double work = edges * transfer;  // per-item serial work
      double bottleneck = 0.0;
      // The group being merged; folded into the totals once it closes.
      double g_service = 0.0;
      double g_replication = 1.0;
      bool g_ordered = false;
      bool g_pinned = false;  // holds a non-replicable stage
      auto fold = [&] {
        const double r = g_pinned ? 1.0 : g_replication;
        workers += r;
        fill += g_service;
        const double reorder = r > 1.0 && g_ordered ? p.reorder_us : 0.0;
        work += g_service + reorder;
        bottleneck = std::max(bottleneck, g_service / r + reorder);
      };
      for (std::size_t i = 0; i < stages.size(); ++i) {
        const bool pinned = !p.stages[i].replicable;
        const double r =
            pinned ? 1.0
                   : static_cast<double>(std::max<std::int64_t>(
                         1, knob(v, stages[i].replication, 1)));
        const bool ordered = r > 1.0 && knob(v, stages[i].order, 1) != 0;
        const double svc = service(i, v, c);
        if (knob(v, stages[i].fuse_prev, 0) != 0) {
          g_service += svc;
          g_replication = std::max(g_replication, r);
          g_ordered = g_ordered || ordered;
          g_pinned = g_pinned || pinned;
        } else {
          if (i > 0) fold();
          g_service = svc;
          g_replication = r;
          g_ordered = ordered;
          g_pinned = pinned;
        }
      }
      if (!stages.empty()) fold();
      if (edges > 0.0) bottleneck += transfer;

      double per_item = std::max(bottleneck, work / c);
      if (workers > c) per_item += p.oversub_us * (workers - c);
      return p.startup_us * workers + fill + n * per_item;
    }
  };

  PipelineModelParams p_;
};

// ---- Data-parallel loop model ---------------------------------------------

class LoopModel final : public CostModel {
 public:
  explicit LoopModel(LoopModelParams p) : p_(std::move(p)) {}

  [[nodiscard]] std::string family() const override { return "loop"; }

  [[nodiscard]] std::unique_ptr<BoundCost> bind(
      const std::vector<std::string>& names) const override {
    auto b = std::make_unique<Bound>(p_);
    b->sequential = slot_of(names, p_.knob_prefix + "sequential");
    b->threads = slot_of(names, p_.knob_prefix + "threads");
    b->grain = slot_of(names, p_.knob_prefix + "grain");
    if (p_.inner) b->inner = p_.inner->bind(names);
    return b;
  }

  [[nodiscard]] std::string describe() const override {
    std::string s = "loop N=" + num(p_.elements) + " iter=" + num(p_.iter_us) +
                    "us spawn=" + num(p_.spawn_us) +
                    "us startup=" + num(p_.startup_us) + "us";
    if (p_.inner) s += " (+inner " + p_.inner->family() + ")";
    return s;
  }

 private:
  struct Bound final : BoundCost {
    const LoopModelParams& p;
    int sequential = kAbsent;
    int threads = kAbsent;
    int grain = kAbsent;
    std::unique_ptr<BoundCost> inner;

    explicit Bound(const LoopModelParams& params) : p(params) {}

    [[nodiscard]] double cost(const std::int64_t* v,
                              double c) const override {
      const double n = std::max(1.0, p.elements);
      const double iter = p.iter_us + (inner ? inner->cost(v, c) : 0.0);
      if (knob(v, sequential, 0) != 0) return p.startup_us + n * iter;
      double t = static_cast<double>(knob(v, threads, 0));
      if (t <= 0.0) t = c;
      const double e = std::max(1.0, std::min(t, c));
      if (e <= 1.0) return p.startup_us + n * iter;
      double g = static_cast<double>(knob(v, grain, 0));
      // Auto grain mirrors the runtime: ~8 chunks per thread, floor 1.
      if (g <= 0.0) g = std::max(1.0, std::floor(n / (t * 8.0)));
      g = std::min(g, n);
      const double chunks = std::ceil(n / g);
      // Perfect split of the work, plus spawn/steal per chunk, plus the
      // tail: the last chunk straggles for up to one grain while e-1
      // threads idle.
      double cost = n * iter / e + chunks * p.spawn_us +
                    g * iter * (e - 1.0) / e + p.startup_us * e;
      if (t > c) cost += (t - c) * p.spawn_us;  // oversubscription nuisance
      return cost;
    }
  };

  LoopModelParams p_;
};

// ---- Master/worker model --------------------------------------------------

class MasterWorkerModel final : public CostModel {
 public:
  explicit MasterWorkerModel(MasterWorkerModelParams p) : p_(std::move(p)) {}

  [[nodiscard]] std::string family() const override { return "master-worker"; }

  [[nodiscard]] std::unique_ptr<BoundCost> bind(
      const std::vector<std::string>& names) const override {
    auto b = std::make_unique<Bound>(p_);
    b->workers = slot_of(names, p_.knob_prefix + "workers");
    return b;
  }

  [[nodiscard]] std::string describe() const override {
    return "master-worker tasks=" + num(p_.tasks) +
           " task=" + num(p_.task_us) +
           "us longest=" + num(p_.longest_task_us) +
           "us dispatch=" + num(p_.dispatch_us) +
           "us contention=" + num(p_.contention);
  }

 private:
  struct Bound final : BoundCost {
    const MasterWorkerModelParams& p;
    int workers = kAbsent;

    explicit Bound(const MasterWorkerModelParams& params) : p(params) {}

    [[nodiscard]] double cost(const std::int64_t* v,
                              double c) const override {
      const double t = std::max(1.0, p.tasks);
      double w = static_cast<double>(knob(v, workers, 0));
      if (w <= 0.0) w = c;  // 0 = shared pool: one lane per hardware thread
      const double e = std::max(1.0, std::min({w, c, t}));
      if (e <= 1.0) return p.startup_us + t * (p.task_us + p.dispatch_us);
      // Service shared across e effective workers, but never shorter than
      // the longest task; every task still pays the injector hop, which
      // contends harder the more workers poll it.
      return p.startup_us * w +
             std::max(t * p.task_us / e, p.longest_task_us) +
             t * p.dispatch_us *
                 (1.0 + p.contention * std::max(0.0, w - 1.0));
    }
  };

  MasterWorkerModelParams p_;
};

// ---- Sum model ------------------------------------------------------------

class SumModel final : public CostModel {
 public:
  explicit SumModel(std::vector<std::shared_ptr<const CostModel>> parts)
      : parts_(std::move(parts)) {}

  [[nodiscard]] std::string family() const override { return "sum"; }

  [[nodiscard]] std::unique_ptr<BoundCost> bind(
      const std::vector<std::string>& names) const override {
    auto b = std::make_unique<Bound>();
    for (const auto& part : parts_) b->parts.push_back(part->bind(names));
    return b;
  }

  [[nodiscard]] std::string describe() const override {
    std::string s = "sum of " + std::to_string(parts_.size()) + ": ";
    for (std::size_t i = 0; i < parts_.size(); ++i) {
      if (i) s += "; ";
      s += parts_[i]->describe();
    }
    return s;
  }

 private:
  struct Bound final : BoundCost {
    std::vector<std::unique_ptr<BoundCost>> parts;

    [[nodiscard]] double cost(const std::int64_t* v,
                              double c) const override {
      double total = 0.0;
      for (const auto& part : parts) total += part->cost(v, c);
      return total;
    }
  };

  std::vector<std::shared_ptr<const CostModel>> parts_;
};

/// Mean relative error of (predicted, measured) points after the
/// least-squares scale (min_s sum(s*p - m)^2): model units are
/// microseconds, measured units are whatever the MeasureFn returns.
double scaled_error(const std::vector<std::pair<double, double>>& points) {
  double pm = 0.0, pp = 0.0;
  for (const auto& [pred, meas] : points) {
    pm += pred * meas;
    pp += pred * pred;
  }
  if (pp <= 0.0) return 0.0;
  const double s = pm / pp;
  double err = 0.0;
  for (const auto& [pred, meas] : points)
    err += std::fabs(s * pred - meas) / meas;
  return err / static_cast<double>(points.size());
}

}  // namespace

int Hardware::effective() const {
  return threads > 0 ? threads : rt::hardware_threads();
}

double CostModel::predict(const rt::TuningConfig& knobs,
                          const Hardware& hw) const {
  std::vector<std::string> names;
  std::vector<std::int64_t> values;
  for (const auto& [name, p] : knobs.params()) {
    names.push_back(name);
    values.push_back(p.value);
  }
  return bind(names)->cost(values.data(),
                           static_cast<double>(hw.effective()));
}

std::unique_ptr<CostModel> make_pipeline_model(PipelineModelParams params) {
  return std::make_unique<PipelineModel>(std::move(params));
}
std::unique_ptr<CostModel> make_loop_model(LoopModelParams params) {
  return std::make_unique<LoopModel>(std::move(params));
}
std::unique_ptr<CostModel> make_master_worker_model(
    MasterWorkerModelParams params) {
  return std::make_unique<MasterWorkerModel>(std::move(params));
}
std::unique_ptr<CostModel> make_sum_model(
    std::vector<std::shared_ptr<const CostModel>> parts) {
  return std::make_unique<SumModel>(std::move(parts));
}

// ---- Fitting from observe telemetry ---------------------------------------

PipelineModelParams fit_pipeline(const observe::PipelineObservation& obs,
                                 std::string knob_prefix, Hardware hw) {
  PipelineModelParams p;
  p.knob_prefix = std::move(knob_prefix);
  p.elements = std::max<double>(1.0, static_cast<double>(obs.elements));
  double fill = 0.0;
  double bottleneck = 0.0;
  for (const observe::StageObservation& so : obs.stages) {
    const double service =
        so.items > 0
            ? so.busy_ms * 1000.0 / static_cast<double>(so.items)
            : 0.0;
    p.stages.push_back({so.name, service, true, nullptr});
    fill += service;
    bottleneck =
        std::max(bottleneck, service / std::max(1, so.replication));
  }
  // Whatever wall-clock the ideal bottleneck model cannot explain is
  // per-item plumbing: attribute it to the queue-transfer cost.
  const double edges = static_cast<double>(
      p.stages.size() > 1 ? p.stages.size() - 1 : 0);
  if (edges > 0.0 && !obs.sequential && obs.wall_ms > 0.0) {
    const double wall_us = obs.wall_ms * 1000.0;
    const double ideal_us = fill + p.elements * bottleneck;
    const double residual = wall_us - ideal_us;
    p.transfer_us = clamp(residual / (p.elements * edges), 0.05, 100.0);
  }
  p.reorder_us = p.transfer_us / 2.0;
  (void)hw;
  return p;
}

LoopModelParams fit_loop(const observe::TelemetryDelta& window,
                         double elements, double measured_wall_us,
                         std::string knob_prefix) {
  LoopModelParams p;
  p.knob_prefix = std::move(knob_prefix);
  const std::uint64_t iterations = window.counter("parallel_for.iterations");
  if (elements <= 0.0) elements = static_cast<double>(iterations);
  p.elements = std::max(1.0, elements);
  const observe::WindowStats chunks =
      window.histogram("parallel_for.chunk_us");
  if (iterations > 0 && chunks.count > 0) {
    p.iter_us = chunks.sum / static_cast<double>(iterations);
    const observe::WindowStats wait =
        window.histogram("threadpool.queue_wait_us");
    if (wait.count > 0) p.spawn_us = clamp(wait.mean, 0.5, 50.0);
  } else if (measured_wall_us > 0.0) {
    // The probe degenerated to the sequential path (e.g. 1-core host):
    // the wall clock over the trip count is still the per-iteration cost.
    p.iter_us = measured_wall_us / p.elements;
  }
  return p;
}

MasterWorkerModelParams fit_master_worker(
    const observe::TelemetryDelta& window, std::string knob_prefix) {
  MasterWorkerModelParams p;
  p.knob_prefix = std::move(knob_prefix);
  p.tasks = std::max<double>(
      1.0, static_cast<double>(window.counter("master_worker.tasks")));
  const observe::WindowStats task = window.histogram("master_worker.task_us");
  if (task.count > 0) p.task_us = task.mean;
  const observe::WindowStats wait =
      window.histogram("threadpool.queue_wait_us");
  if (wait.count > 0) p.dispatch_us = clamp(wait.mean, 0.5, 50.0);
  return p;
}

double mean_relative_error(
    const CostModel& model, const Hardware& hw,
    const std::vector<std::pair<rt::TuningConfig, double>>& measured) {
  std::vector<std::pair<double, double>> points;
  for (const auto& [config, score] : measured) {
    if (!(score > 0.0) || !std::isfinite(score)) continue;
    const double pred = model.predict(config, hw);
    if (!(pred > 0.0) || !std::isfinite(pred)) continue;
    points.emplace_back(pred, score);
  }
  return scaled_error(points);
}

// ---- Searching a knob space by prediction ---------------------------------

namespace {

struct PredictedBest {
  std::vector<std::size_t> idx;
  double cost = 0.0;
  double start_cost = 0.0;
};

using VisitFn = std::function<void(double, const std::vector<std::size_t>&)>;

/// The predicted-best point of `space` under `bound`, searched from
/// `start`. A space of at most `cap` points is enumerated in full, in
/// odometer order; a larger one is searched by prediction-only coordinate
/// descent from `start` (free, so it sweeps until a fixpoint), predicting
/// each point it reaches once. `visit(cost, idx)` sees every predicted
/// point, the descent's `start` first. Ties keep the earlier point, and
/// `start` before any other.
PredictedBest predict_best(const BoundCost& bound, const detail::Space& space,
                           double threads,
                           const std::vector<std::size_t>& start,
                           std::uint64_t cap, const VisitFn& visit = {}) {
  std::vector<std::int64_t> values(space.dims());
  auto cost_at = [&](const std::vector<std::size_t>& idx) {
    for (std::size_t d = 0; d < space.dims(); ++d)
      values[d] = space.domains[d][idx[d]];
    return bound.cost(values.data(), threads);
  };
  PredictedBest best{start, cost_at(start), 0.0};
  best.start_cost = best.cost;
  auto consider = [&](double cost, const std::vector<std::size_t>& idx) {
    if (visit) visit(cost, idx);
    if (cost < best.cost) {
      best.cost = cost;
      best.idx = idx;
    }
  };

  if (space.dims() > 0 && space.size() <= cap) {
    std::vector<std::size_t> idx(space.dims(), 0);
    while (true) {
      consider(cost_at(idx), idx);
      std::size_t d = 0;
      while (d < space.dims() && ++idx[d] == space.domains[d].size()) {
        idx[d] = 0;
        ++d;
      }
      if (d == space.dims()) return best;
    }
  }

  if (visit) visit(best.cost, start);
  std::set<std::vector<std::size_t>> visited{start};
  bool improved = true;
  while (improved) {
    improved = false;
    for (std::size_t d = 0; d < space.dims(); ++d) {
      const std::vector<std::size_t> cur = best.idx;
      for (std::size_t i = 0; i < space.domains[d].size(); ++i) {
        if (i == cur[d]) continue;
        std::vector<std::size_t> probe = cur;
        probe[d] = i;
        if (visited.insert(probe).second) consider(cost_at(probe), probe);
      }
      if (best.idx != cur) improved = true;
    }
  }
  return best;
}

// ---- Design-time prediction -----------------------------------------------

/// Nominal leaves for a region the profile never reached: one loop-body
/// item is taken as 100us and the stream as 256 items.
constexpr double kNominalBodyUs = 100.0;
constexpr double kNominalElements = 256.0;

std::string candidate_prefix(const patterns::Candidate& c) {
  return c.tuning.empty() ? "" : patterns::knob_prefix(c.tuning.front().name);
}

/// A leaf for a one-line note: whole numbers from 10 up, else two digits.
std::string leaf_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, v >= 10.0 ? "%.0f" : "%.2g", v);
  return buf;
}

/// One StageCost per stage of the plan's graph: its share of an element's
/// cost, discounted by stage_scale (1.0 = undiscounted).
PipelineModelParams pipeline_params(const patterns::RegionPlan& plan,
                                    double elements, double item_us,
                                    const std::vector<double>& stage_scale) {
  PipelineModelParams p;
  p.knob_prefix = candidate_prefix(*plan.candidate);
  p.elements = elements;
  for (std::size_t i = 0; i < plan.stages.size(); ++i) {
    const patterns::PlanStage& s = plan.stages[i];
    const double scale = i < stage_scale.size() ? stage_scale[i] : 1.0;
    p.stages.push_back({s.label,
                        std::max(0.01, s.runtime_share) * item_us * scale,
                        s.replicable, nullptr});
  }
  return p;
}

/// A candidate's design-time model and the leaves it was built from.
struct DesignModel {
  std::shared_ptr<const CostModel> model;
  std::string leaves;
};

/// Design-time model with per-stage service discounts (1.0 = undiscounted):
/// predict_speedups shrinks the share of a stage or body that contains an
/// already-predicted nested candidate.
DesignModel design_model_scaled(const patterns::RegionPlan& plan,
                                const std::vector<double>& stage_scale,
                                double body_scale) {
  const patterns::Candidate& c = *plan.candidate;
  const std::string prefix = candidate_prefix(c);
  // One element (a loop iteration) or task: profiled, else nominal.
  const bool profiled = c.kind == patterns::PatternKind::MasterWorker
                            ? !c.task_costs.empty()
                            : c.trips_per_entry > 0.0;
  double count = kNominalElements;
  double item_us = kNominalBodyUs;
  double longest_us = 0.0;  // master/worker: the slowest profiled task
  if (profiled && c.kind == patterns::PatternKind::MasterWorker) {
    count = static_cast<double>(c.task_costs.size());
    item_us = std::accumulate(c.task_costs.begin(), c.task_costs.end(), 0.0) /
              count * kUsPerCost;
    longest_us =
        *std::max_element(c.task_costs.begin(), c.task_costs.end()) *
        kUsPerCost;
  } else if (profiled) {
    count = c.trips_per_entry;
    item_us = c.cost_per_iteration * kUsPerCost;
  } else if (c.kind == patterns::PatternKind::MasterWorker) {
    count = std::max<double>(2.0, static_cast<double>(c.task_stmt_ids.size()));
  }
  DesignModel out;
  switch (c.kind) {
    case patterns::PatternKind::Pipeline:
      out.model = make_pipeline_model(
          pipeline_params(plan, count, item_us, stage_scale));
      break;
    case patterns::PatternKind::DataParallelLoop: {
      LoopModelParams p;
      p.knob_prefix = prefix;
      p.elements = count;
      p.iter_us = item_us * body_scale;
      out.model = make_loop_model(std::move(p));
      break;
    }
    case patterns::PatternKind::MasterWorker: {
      MasterWorkerModelParams p;
      p.knob_prefix = prefix;
      p.tasks = count;
      p.task_us = item_us * body_scale;
      p.longest_task_us = longest_us * body_scale;
      out.model = make_master_worker_model(std::move(p));
      break;
    }
  }
  out.leaves = std::string(profiled ? "" : "nominal ") + leaf_num(count) +
               (c.kind == patterns::PatternKind::MasterWorker ? " tasks x "
                                                               : " elements x ") +
               leaf_num(item_us) + " us";
  return out;
}

/// Price the config under `model` sequentially and at its own knob values.
/// With `search`, also search its domain and report the predicted best;
/// without, only sequential_cost and default_speedup are filled.
SpeedupPrediction predict_over_space(
    const std::shared_ptr<const CostModel>& model, rt::TuningConfig config,
    const std::string& prefix, const Hardware& hw, bool search) {
  SpeedupPrediction out;
  if (!model) return out;
  const detail::Space space(config);
  const std::unique_ptr<BoundCost> bound = model->bind(space.names);
  const double threads = static_cast<double>(hw.effective());
  // Sequential reference: the pattern's own escape hatch (the sequential
  // knob, or a single worker for master/worker).
  std::vector<std::int64_t> seq;
  for (const auto& [name, p] : config.params()) seq.push_back(p.value);
  for (const char* escape : {"sequential", "workers", "threads"}) {
    const int slot = slot_of(space.names, prefix + escape);
    if (slot != kAbsent) seq[static_cast<std::size_t>(slot)] = 1;
  }
  out.sequential_cost = bound->cost(seq.data(), threads);
  if (!search) {
    // The point a search starts from, priced the way predict_best does.
    const std::vector<std::int64_t> start =
        space.values(space.indices_of(config));
    const double start_cost = bound->cost(start.data(), threads);
    out.default_speedup =
        start_cost > 0.0 ? out.sequential_cost / start_cost : 1.0;
    return out;
  }

  const PredictedBest best =
      predict_best(*bound, space, threads, space.indices_of(config), 4096);
  space.apply(best.idx, &config);
  out.best = config;
  out.best_cost = best.cost;
  out.speedup = best.cost > 0.0 ? out.sequential_cost / best.cost : 1.0;
  out.default_speedup =
      best.start_cost > 0.0 ? out.sequential_cost / best.start_cost : 1.0;
  out.summary = model->family() + ": predicted " + num(out.speedup) +
                "x on " + std::to_string(hw.effective()) + " threads (" +
                num(out.sequential_cost) + "us -> " + num(best.cost) + "us)";
  return out;
}

/// Predict one candidate over its own tuning domain (see
/// predict_over_space), from its plan's model with the given nesting
/// discounts.
SpeedupPrediction predict_scaled(const patterns::RegionPlan& plan,
                                 const std::vector<double>& stage_scale,
                                 double body_scale, const Hardware& hw,
                                 bool search) {
  const patterns::Candidate& c = *plan.candidate;
  rt::TuningConfig config;
  for (const rt::TuningParameter& p : c.tuning) config.define(p);
  DesignModel dm = design_model_scaled(plan, stage_scale, body_scale);
  SpeedupPrediction out = predict_over_space(
      dm.model, std::move(config), candidate_prefix(c), hw, search);
  out.leaves = std::move(dm.leaves);
  return out;
}

/// predict_speedups over plans, with or without the knob search: nested
/// candidates compose innermost first.
std::vector<SpeedupPrediction> predict_nested(
    const std::vector<patterns::RegionPlan>& plans, const Hardware& hw,
    bool search) {
  // Innermost first (shortest source range), so an outer region composes
  // over its nested candidates' already-computed predictions.
  std::vector<SpeedupPrediction> out(plans.size());
  std::vector<bool> done(plans.size(), false);
  std::vector<std::size_t> order(plans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  auto span_lines = [&](std::size_t i) {
    const lang::Stmt* a = plans[i].candidate->anchor;
    return a ? static_cast<long>(a->range.end.line) -
                   static_cast<long>(a->range.begin.line)
             : 0L;
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return span_lines(a) < span_lines(b);
                   });

  auto holds = [](const patterns::PlanStage& stage, const lang::Stmt& st) {
    for (const patterns::PlanMember& m : stage.members)
      if (std::find(m.stmts.begin(), m.stmts.end(), &st) != m.stmts.end())
        return true;
    return false;
  };
  auto contains = [](const patterns::Candidate& outer,
                     const patterns::Candidate& inner) {
    if (!outer.anchor || !inner.anchor || outer.anchor == inner.anchor)
      return false;
    return outer.anchor->range.begin <= inner.anchor->range.begin &&
           inner.anchor->range.end <= outer.anchor->range.end;
  };

  for (std::size_t oi : order) {
    const patterns::RegionPlan& plan = plans[oi];
    const patterns::Candidate& c = *plan.candidate;
    // Discount work a nested, already-predicted candidate will absorb:
    // profiler shares are inclusive, so the inner region's share of the
    // enclosing stage shrinks by the speedup in force when it runs untuned
    // (1.0 where the executor's gate runs it sequentially).
    std::vector<double> stage_scale(plan.stages.size(), 1.0);
    double body_scale = 1.0;
    for (std::size_t ii = 0; ii < plans.size(); ++ii) {
      const patterns::Candidate& in = *plans[ii].candidate;
      if (ii == oi || !done[ii] || !contains(c, in)) continue;
      const double f =
          c.runtime_share > 0.0
              ? clamp(in.runtime_share / c.runtime_share, 0.0, 1.0)
              : 0.0;
      if (f <= 0.0) continue;
      const double spd = std::max(1.0, out[ii].default_speedup);
      if (c.kind == patterns::PatternKind::Pipeline && in.anchor) {
        for (std::size_t s = 0; s < plan.stages.size(); ++s) {
          if (!holds(plan.stages[s], *in.anchor)) continue;
          const double share = std::max(0.01, plan.stages[s].runtime_share);
          const double frac = std::min(f, share) / share;
          stage_scale[s] = std::max(
              0.05, stage_scale[s] * (1.0 - frac + frac / spd));
        }
      } else {
        body_scale = std::max(0.05, body_scale * (1.0 - f + f / spd));
      }
    }
    out[oi] = predict_scaled(plan, stage_scale, body_scale, hw, search);
    done[oi] = true;
  }
  return out;
}

}  // namespace

PipelineModelParams design_pipeline(const patterns::RegionPlan& plan) {
  const patterns::Candidate& c = *plan.candidate;
  const bool profiled = c.trips_per_entry > 0.0;
  return pipeline_params(
      plan, profiled ? c.trips_per_entry : kNominalElements,
      profiled ? c.cost_per_iteration * kUsPerCost : kNominalBodyUs, {});
}

SpeedupPrediction predict_candidate_speedup(const patterns::Candidate& c,
                                            Hardware hw) {
  return predict_scaled(patterns::plan_region(c, nullptr), {}, 1.0, hw, true);
}

std::vector<SpeedupPrediction> predict_speedups(
    const std::vector<patterns::Candidate>& candidates, Hardware hw) {
  std::vector<patterns::RegionPlan> plans;
  plans.reserve(candidates.size());
  for (const patterns::Candidate& c : candidates)
    plans.push_back(patterns::plan_region(c, nullptr));
  return predict_nested(plans, hw, true);
}

std::vector<SpeedupPrediction> predict_default_speedups(
    const std::vector<patterns::RegionPlan>& plans, Hardware hw) {
  return predict_nested(plans, hw, false);
}

void annotate_predicted_speedups(std::vector<patterns::Candidate>& candidates,
                                 Hardware hw) {
  const std::vector<SpeedupPrediction> predictions =
      predict_speedups(candidates, hw);
  for (std::size_t i = 0; i < candidates.size(); ++i)
    candidates[i].predicted_speedup = predictions[i].speedup;
}

// ---- Model-guided tuner ---------------------------------------------------

namespace {

/// Which pattern family a knob space belongs to, judged by the tails the
/// detector emits. Empty = unrecognizable (generic objective): no model.
std::string classify_space(const std::vector<std::string>& names,
                           std::string* prefix_out,
                           std::vector<std::string>* labels_out) {
  std::string prefix;
  for (const std::string& n : names) {
    prefix = patterns::knob_prefix(n);
    if (!prefix.empty()) break;
  }
  bool pipeline = false, loop = false, mw = false;
  std::vector<std::string> labels;
  for (const std::string& n : names) {
    std::string tail =
        n.rfind(prefix, 0) == 0 ? n.substr(prefix.size()) : n;
    if (tail == "buffer" || tail == "batch" || tail.rfind("fuse", 0) == 0)
      pipeline = true;
    if (tail.rfind("stage", 0) == 0) {
      pipeline = true;
      const std::size_t dot = tail.find('.');
      if (dot != std::string::npos && dot > 5)
        labels.push_back(tail.substr(5, dot - 5));
    }
    if (tail == "grain" || tail == "threads") loop = true;
    if (tail == "workers") mw = true;
  }
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  *prefix_out = prefix;
  *labels_out = labels;
  if (pipeline) return "pipeline";
  if (loop) return "loop";
  if (mw) return "master-worker";
  return "";
}

/// The most recent telemetry-published pipeline observation whose stage
/// names cover the knob space's stage labels.
std::optional<observe::PipelineObservation> matching_observation(
    const std::vector<std::string>& labels) {
  const std::vector<observe::PipelineObservation> recent =
      observe::recent_pipelines();
  for (auto it = recent.rbegin(); it != recent.rend(); ++it) {
    std::set<std::string> names;
    for (const observe::StageObservation& so : it->stages)
      names.insert(so.name);
    bool all = !it->stages.empty();
    for (const std::string& l : labels)
      if (!names.count(l)) all = false;
    if (all) return *it;
  }
  if (!recent.empty()) return recent.back();
  return std::nullopt;
}

class ModelGuidedTuner final : public Tuner {
 public:
  explicit ModelGuidedTuner(ModelGuidedOptions opts)
      : opts_(std::move(opts)) {}

  [[nodiscard]] std::string name() const override { return "model-guided"; }

  TuningRun tune(rt::TuningConfig config, const MeasureFn& measure,
                 std::size_t budget) override {
    const detail::Space space(config);
    detail::Evaluator ev(space, config, measure, budget, options_);
    const std::vector<std::size_t> start = space.indices_of(config);
    ModelFitInfo& info = ev.run.model;
    const Hardware hw = opts_.hardware;

    auto fallback = [&](std::string why) {
      info.used = false;
      info.family = "fallback-linear";
      info.description = std::move(why);
      detail::linear_descend(ev, space, start);
      return std::move(ev.run);
    };

    std::shared_ptr<const CostModel> model = opts_.model;
    std::string family = model ? "injected" : "";
    std::string prefix;
    std::vector<std::string> labels;
    if (!model) {
      family = classify_space(space.names, &prefix, &labels);
      if (family.empty())
        return fallback("no pattern knobs recognized in the search space");
    }

    // One probe of the starting configuration. Without an injected model it
    // runs with telemetry forced on and fits the model from the window; with
    // one it still calibrates the score scale.
    double probe_score = 0.0;
    if (!model) {
      const bool was = observe::enabled();
      observe::set_enabled(true);
      if (family == "pipeline") observe::clear_pipelines();
      const observe::MetricsSnapshot before = observe::capture();
      const std::uint64_t t0 = observe::now_us();
      probe_score = ev.eval(start);
      const double wall_us = static_cast<double>(observe::now_us() - t0);
      const observe::TelemetryDelta window = observe::delta_since(before);
      observe::set_enabled(was);
      if (!std::isfinite(probe_score))
        return fallback("probe evaluation failed");
      if (family == "pipeline") {
        const std::optional<observe::PipelineObservation> obs =
            matching_observation(labels);
        if (!obs)
          return fallback("probe published no pipeline observation");
        model = std::shared_ptr<const CostModel>(
            make_pipeline_model(fit_pipeline(*obs, prefix, hw)));
      } else if (family == "loop") {
        const LoopModelParams p = fit_loop(window, 0.0, wall_us, prefix);
        if (p.iter_us <= 0.0)
          return fallback("probe produced no loop telemetry");
        model = std::shared_ptr<const CostModel>(make_loop_model(p));
      } else {
        const MasterWorkerModelParams p = fit_master_worker(window, prefix);
        if (p.task_us <= 0.0)
          return fallback("probe produced no master/worker telemetry");
        model =
            std::shared_ptr<const CostModel>(make_master_worker_model(p));
      }
    } else {
      probe_score = ev.eval(start);
      if (!std::isfinite(probe_score))
        return fallback("probe evaluation failed");
    }
    info.probe_evaluations = 1;

    // Rank the WHOLE space by prediction (no measurements), then validate
    // one representative per distinct predicted score, best first. Too big
    // to enumerate: rank every point the prediction-only descent visits.
    std::vector<std::pair<double, std::vector<std::size_t>>> ranked;
    const std::unique_ptr<BoundCost> bound = model->bind(space.names);
    const double pred_start =
        predict_best(*bound, space, static_cast<double>(hw.effective()),
                     start, opts_.max_enumeration,
                     [&ranked](double pred,
                               const std::vector<std::size_t>& idx) {
                       ranked.emplace_back(pred, idx);
                     })
            .start_cost;
    info.scale = pred_start > 0.0 ? probe_score / pred_start : 1.0;
    info.predicted_default = info.scale * pred_start;
    std::sort(ranked.begin(), ranked.end());

    info.predicted_best = info.scale * ranked.front().first;
    info.predicted_speedup = ranked.front().first > 0.0
                                 ? pred_start / ranked.front().first
                                 : 1.0;

    // Validate: ties in the prediction need only one measurement (on a
    // host where the model says "sequential wins", the whole sequential
    // slice collapses into one run).
    double prev_pred = std::numeric_limits<double>::quiet_NaN();
    std::size_t validated = 0;
    for (const auto& [pred, idx] : ranked) {
      if (validated >= opts_.top_k || ev.exhausted()) break;
      if (!std::isnan(prev_pred) &&
          std::fabs(pred - prev_pred) <=
              1e-9 * std::max(1.0, std::fabs(prev_pred)))
        continue;
      prev_pred = pred;
      ++validated;
      if (idx == start) {
        info.validations.emplace_back(info.scale * pred, probe_score);
        continue;  // already measured by the probe
      }
      const std::size_t before_evals = ev.run.evaluations;
      const double measured = ev.eval(idx);
      if (!std::isfinite(measured)) continue;
      info.validations.emplace_back(info.scale * pred, measured);
      info.validation_evaluations += ev.run.evaluations - before_evals;
    }

    // Prediction quality over the validated points, least-squares scaled
    // (same convention as mean_relative_error).
    std::vector<std::pair<double, double>> points;
    for (const auto& point : info.validations)
      if (point.second > 0.0) points.push_back(point);
    info.fit_error = scaled_error(points);

    info.used = true;
    info.family = family;
    info.description = model->describe();
    return std::move(ev.run);
  }

 private:
  ModelGuidedOptions opts_;
};

}  // namespace

std::unique_ptr<Tuner> make_model_guided_tuner(ModelGuidedOptions opts) {
  return std::make_unique<ModelGuidedTuner>(std::move(opts));
}

std::string explain_model(const TuningRun& run) {
  const ModelFitInfo& m = run.model;
  std::string out = "model-guided tuning report\n";
  if (!m.used) {
    out += "  no model used (" +
           (m.description.empty() ? std::string("search-based run")
                                  : m.description) +
           ")\n";
    out += "  evaluations: " + std::to_string(run.evaluations) +
           ", best score: " + num(run.best_score) + "\n";
    return out;
  }
  out += "  family: " + m.family + "\n";
  out += "  model:  " + m.description + "\n";
  out += "  calibration: " + num(m.scale) + " score units/us; predicted " +
         num(m.predicted_default) + " (default) -> " + num(m.predicted_best) +
         " (best), " + num(m.predicted_speedup) + "x predicted speedup\n";
  out += "  evaluations: " + std::to_string(run.evaluations) + " (" +
         std::to_string(m.probe_evaluations) + " probe + " +
         std::to_string(m.validation_evaluations) + " validation)\n";
  if (!m.validations.empty()) {
    out += "  validation (predicted vs measured):\n";
    for (std::size_t i = 0; i < m.validations.size(); ++i) {
      const auto& [pred, meas] = m.validations[i];
      out += "    #" + std::to_string(i + 1) + "  pred=" + num(pred) +
             "  meas=" + num(meas);
      if (meas > 0.0)
        out += "  (" + pct(std::fabs(pred - meas) / meas) + " off)";
      out += "\n";
    }
    out += "  mean relative prediction error: " + pct(m.fit_error) + "\n";
  }
  out += "  best measured score: " + num(run.best_score) + "\n";
  return out;
}

}  // namespace patty::tuning
