#pragma once
// Compositional cost models for model-guided autotuning.
//
// The paper's tuner explores the knob space linearly in each dimension, so
// tuning costs O(dimensions x domain values) real measurement runs. This
// module replaces most of those runs with analytical per-pattern
// performance models in the style of the Extra-P line of work: one
// telemetry-enabled probe run fits the model's parameters (per-stage
// service times, chunk costs, queue-transfer overhead) from the observe
// layer's own metrics, the model then predicts a score for EVERY point of
// the knob space in microseconds, and only the top-K model-ranked
// configurations are re-measured as validation runs. Model forms:
//
//   Pipeline       N * max(max_g(service_g / r_g) + transfer,
//                          (sum_g service_g + edges*transfer + reorder) / C)
//                  + fill + startup, with batch/buffer scaling the transfer
//                  term and an oversubscription penalty past C hw threads
//   Data-parallel  N*iter/min(t,C) + chunks*spawn + tail-imbalance + startup
//   Master/worker  max(T*task/min(w,C,T), longest task)
//                  + T*dispatch*(1+contention(w)) + startup
//
// Models COMPOSE over the detected TADL nesting: a stage (or iteration)
// that contains a nested region carries that region's model, and the outer
// prediction uses the inner model's prediction as the stage's service time.
// The same models answer "predicted speedup before transformation": see
// predict_candidate_speedup / predict_speedups, which work from the
// profile's leaves alone (design-time, no telemetry needed): each loop's
// trip count and cost per iteration, each task's cost, converted to
// microseconds at the fixed interpreter rate kUsPerCost.
//
// Enumerating a space binds the model once (CostModel::bind): every knob
// it and its nested models read becomes a slot of the space's name-sorted
// value vector, so a knob point costs tens of nanoseconds, with no string
// built and no map searched. predict() is the same formula, bound for one
// call.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "observe/explain.hpp"
#include "observe/snapshot.hpp"
#include "patterns/region_plan.hpp"
#include "runtime/tuning.hpp"
#include "tuning/tuner.hpp"

namespace patty::tuning {

/// The machine the prediction is for. threads == 0 resolves to the
/// machine's hardware thread count (minimum 1), which the runtime reads
/// once per process (rt::hardware_threads()). Tests set it to pin
/// predictions.
struct Hardware {
  int threads = 0;
  [[nodiscard]] int effective() const;
};

/// The plain interpreter's speed, in microseconds per profiler cost unit
/// (one executed statement, or one unit of work()), that converts the
/// profile's leaves for the design-time models. A fixed figure, like the
/// overhead constants of the model parameters below (startup, spawn,
/// dispatch), and taken on the same 4-core x86-64 host: a loop body of
/// array reads and writes, a call and work() units runs at 0.039-0.041 us
/// per unit there. Statements and work() units cost differently, so single
/// programs run at 0.026-0.064 us per unit on that host.
inline constexpr double kUsPerCost = 0.04;

/// A cost model resolved against one knob space (CostModel::bind).
class BoundCost {
 public:
  BoundCost() = default;
  BoundCost(const BoundCost&) = delete;
  BoundCost& operator=(const BoundCost&) = delete;
  virtual ~BoundCost() = default;
  /// Predicted cost at one point of the space: `values[s]` is the value of
  /// the space's s-th knob name, `threads` is Hardware::effective().
  [[nodiscard]] virtual double cost(const std::int64_t* values,
                                    double threads) const = 0;
};

class CostModel {
 public:
  virtual ~CostModel() = default;
  /// "pipeline" | "loop" | "master-worker" | "sum".
  [[nodiscard]] virtual std::string family() const = 0;
  /// Predicted wall-clock cost (microseconds) of running the modeled
  /// region's whole stream under `knobs` on `hw`. Only relative order
  /// matters to the tuner; absolute units are calibrated against one
  /// measured probe. Binds to `knobs` for this one call.
  [[nodiscard]] double predict(const rt::TuningConfig& knobs,
                               const Hardware& hw) const;
  /// Resolve every knob this model and its nested models read to its slot
  /// in `names` (sorted, as TuningConfig::params() orders them). A knob the
  /// names lack reads as the model's default. The result refers to this
  /// model, which must outlive it.
  [[nodiscard]] virtual std::unique_ptr<BoundCost> bind(
      const std::vector<std::string>& names) const = 0;
  /// Fitted parameters, one line, for explain_model().
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// One pipeline stage's fitted cost. `label` must match the knob naming the
/// detector emits: <prefix>stage<label>.replication / .order and
/// <prefix>fuse<label1><label2> for consecutive pairs.
struct StageCost {
  std::string label;
  double service_us = 0.0;  // per item, one worker, inner region excluded
  bool replicable = true;
  /// Nested region inside this stage (TADL nesting): predicts the cost of
  /// the inner region PER OUTER ITEM under the same TuningConfig (the inner
  /// knobs live there under their own prefix). Composition rule: the
  /// stage's effective service time is service_us + the inner prediction.
  std::shared_ptr<const CostModel> inner;
};

struct PipelineModelParams {
  /// Knob-name prefix, e.g. "VideoApp.Process.pipeline@38." ("" for bare
  /// names like the tuner-convergence bench uses).
  std::string knob_prefix;
  double elements = 1.0;    // stream length N
  std::vector<StageCost> stages;
  double transfer_us = 1.0;  // queue hop per item per edge (batch 1)
  double reorder_us = 0.5;   // per item behind a replicated ordered stage
  double startup_us = 50.0;  // per worker thread: fork/join amortization
  double oversub_us = 1.0;   // per item per thread beyond hw concurrency
};
std::unique_ptr<CostModel> make_pipeline_model(PipelineModelParams params);

struct LoopModelParams {
  std::string knob_prefix;
  double elements = 1.0;  // iteration count N
  double iter_us = 0.0;   // one iteration's body, inner region excluded
  double spawn_us = 2.0;  // submit+steal per spawned chunk
  double startup_us = 20.0;
  /// Nested region per iteration (e.g. Pipeline(Map) the other way round).
  std::shared_ptr<const CostModel> inner;
};
std::unique_ptr<CostModel> make_loop_model(LoopModelParams params);

struct MasterWorkerModelParams {
  std::string knob_prefix;
  double tasks = 1.0;
  double task_us = 0.0;         // mean task
  double longest_task_us = 0.0;  // a parallel run lasts at least this long
  double dispatch_us = 2.0;  // injector hop per task
  double contention = 0.1;   // extra dispatch fraction per worker beyond 1
  double startup_us = 20.0;
};
std::unique_ptr<CostModel> make_master_worker_model(
    MasterWorkerModelParams params);

/// Sum of independent regions sharing one TuningConfig (a program with
/// several detected candidates tunes them jointly).
std::unique_ptr<CostModel> make_sum_model(
    std::vector<std::shared_ptr<const CostModel>> parts);

// ---- Fitting from observe telemetry --------------------------------------

/// Fit per-stage service times and the queue-transfer overhead from one
/// telemetry-enabled run's observation. Stage labels are taken from the
/// observation's stage names (the plan executor and the benches name stages
/// by their detector label, so knobs resolve). The wall-clock residual that
/// the ideal model cannot explain is attributed to per-item transfer cost.
PipelineModelParams fit_pipeline(const observe::PipelineObservation& obs,
                                 std::string knob_prefix = "",
                                 Hardware hw = {});

/// Fit a data-parallel loop model from a telemetry window. When the window
/// holds no chunk telemetry (the probe degenerated to the sequential path,
/// e.g. on a 1-core host), the per-iteration cost falls back to
/// measured_wall_us / elements.
LoopModelParams fit_loop(const observe::TelemetryDelta& window,
                         double elements, double measured_wall_us = 0.0,
                         std::string knob_prefix = "");

/// Fit a master/worker model from a telemetry window (master_worker.task_us
/// service histogram, threadpool.queue_wait_us as the dispatch cost).
MasterWorkerModelParams fit_master_worker(
    const observe::TelemetryDelta& window, std::string knob_prefix = "");

/// Mean relative error of the model against measured (config, score)
/// points, after a least-squares scale calibration (model units are us,
/// measured units are whatever the MeasureFn returns).
double mean_relative_error(
    const CostModel& model, const Hardware& hw,
    const std::vector<std::pair<rt::TuningConfig, double>>& measured);

// ---- Design-time prediction (before transformation) ----------------------

struct SpeedupPrediction {
  double speedup = 1.0;      // predicted sequential cost / best tuned cost
  /// Sequential cost over the cost at the knob values the search started
  /// from (a candidate's defaults): below 1.0 the region, run untuned, is
  /// predicted to slow down.
  double default_speedup = 1.0;
  rt::TuningConfig best;     // the predicted-best knob settings
  double best_cost = 0.0;    // model units
  double sequential_cost = 0.0;
  std::string summary;       // one line for reports
  /// The model's leaves, e.g. "384 elements x 0.12 us" ("nominal ..." for
  /// a region the profile never reached).
  std::string leaves;
};

/// Build the candidate's cost model from its profiled leaves
/// (Candidate::trips_per_entry, cost_per_iteration, task_costs, with the
/// stage shares splitting a pipeline's iteration), converted to
/// microseconds at kUsPerCost; a candidate the profile never reached gets
/// nominal leaves (256 elements x 100 us). A pipeline's model has one stage
/// per stage of the candidate's region plan (patterns/region_plan), so a
/// section is one non-replicable stage whose service is its members' sum.
/// Then enumerate the candidate's own tuning domain under it and report
/// the predicted best configuration and its speedup over sequential. No
/// telemetry needed: this is the design-time "is this region worth
/// parallelizing on this machine" answer.
SpeedupPrediction predict_candidate_speedup(const patterns::Candidate& c,
                                            Hardware hw = {});

/// The design-time pipeline model's parameters for a pipeline's plan: one
/// StageCost per plan stage, at the candidate's leaves.
PipelineModelParams design_pipeline(const patterns::RegionPlan& plan);

/// Predict every candidate, one result per candidate in order. Nested
/// candidates (anchor statement inside an outer candidate's body) compose
/// innermost first: the inner region's share of the enclosing body shrinks
/// by the speedup in force when it runs untuned, which is its
/// default_speedup, or 1.0 where that is below 1.0 (the plan executor then
/// runs it sequentially).
std::vector<SpeedupPrediction> predict_speedups(
    const std::vector<patterns::Candidate>& candidates, Hardware hw = {});

/// What the plan executor's gate reads, from the candidates' region plans
/// (one per candidate, in order): the same composition, but each region is
/// priced only sequentially and at its default knobs, with no search, so
/// only sequential_cost, default_speedup and leaves are filled. The models
/// read only the plans' stage graphs, which no tuning changes, so the
/// executor passes its own plans instead of planning twice.
std::vector<SpeedupPrediction> predict_default_speedups(
    const std::vector<patterns::RegionPlan>& plans, Hardware hw = {});

/// Fill Candidate::predicted_speedup (the best tuned speedup) for every
/// candidate from predict_speedups.
void annotate_predicted_speedups(std::vector<patterns::Candidate>& candidates,
                                 Hardware hw = {});

// ---- Model-guided tuner ---------------------------------------------------

struct ModelGuidedOptions {
  /// Validation runs: the top-K model-ranked configurations (one
  /// representative per distinct predicted score) are actually measured.
  std::size_t top_k = 5;
  /// Full knob-space enumeration cap; larger spaces are searched by
  /// prediction-only coordinate descent (still zero measurements).
  std::size_t max_enumeration = 1u << 16;
  Hardware hardware;
  /// Injected model (tests, or a caller that already fit one): skips the
  /// telemetry probe fitting, but the starting configuration is still
  /// measured once to calibrate the score scale.
  std::shared_ptr<const CostModel> model;
};

/// The model-guided tuner: one telemetry-enabled probe of the starting
/// configuration fits the pattern's cost model, the model ranks the whole
/// space, and only the top-K distinct predictions are measured. Measured
/// evaluations are therefore O(1 + K) instead of O(dims x values). When no
/// model can be fit (no recognizable knobs or no telemetry), degrades to
/// the linear search so the tuner contract still holds.
std::unique_ptr<Tuner> make_model_guided_tuner(ModelGuidedOptions opts = {});

/// observe::explain-style text report of a model-guided run: fitted model,
/// calibration scale, predicted-vs-measured for each validation point, the
/// mean relative prediction error, and the predicted speedup.
std::string explain_model(const TuningRun& run);

}  // namespace patty::tuning
