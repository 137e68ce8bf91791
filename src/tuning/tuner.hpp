#pragma once
// Auto-tuning (paper §2.1 "performance validation" / figure 4c).
//
// The tuner repeatedly initializes the tuning configuration, measures the
// program, and proposes new values — the cycle Patty's IDE panel shows.
// The paper's implementation "explores the search space linearly in each
// dimension"; that is the linear tuner here. The model-guided tuner
// (tuning/model.hpp) fits a cost model instead and measures only its
// top-ranked configurations. The searches the paper names as future work
// (Nelder-Mead simplex [30], tabu search [31]) are left out: on the
// tuner-convergence bench neither beats both of these (EXPERIMENTS A2).

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/tuning.hpp"

namespace patty::tuning {

/// Measures one configuration; smaller is better (e.g. runtime in seconds).
using MeasureFn = std::function<double(const rt::TuningConfig&)>;

struct Evaluation {
  std::vector<std::int64_t> values;  // one per parameter, name-sorted
  double score = 0.0;
  /// A candidate that threw or exceeded the deadline. Its score is
  /// +infinity so it never becomes the best; the search continues.
  bool failed = false;
  std::string failure;  // exception message or "deadline exceeded"
};

/// What the model-guided tuner fit and how well it predicted (empty /
/// used == false for the linear tuner).
struct ModelFitInfo {
  bool used = false;
  /// "pipeline" | "loop" | "master-worker" | "injected" | "fallback-linear".
  std::string family;
  std::string description;  // fitted parameters, human-readable
  /// Score units per predicted microsecond, calibrated on the probe run.
  double scale = 0.0;
  /// Mean relative |predicted - measured| / measured over the validations.
  double fit_error = 0.0;
  double predicted_best = 0.0;     // calibrated score of the ranked-best point
  double predicted_default = 0.0;  // calibrated score of the starting point
  double predicted_speedup = 1.0;  // predicted_default / predicted_best
  std::size_t probe_evaluations = 0;
  std::size_t validation_evaluations = 0;
  std::vector<std::pair<double, double>> validations;  // (predicted, measured)
};

struct TuningRun {
  rt::TuningConfig best;
  double best_score = 0.0;
  std::size_t evaluations = 0;
  std::size_t failed_evaluations = 0;
  std::vector<Evaluation> history;  // in evaluation order
  ModelFitInfo model;               // model-guided tuner only
};

/// Hardening knobs shared by all tuners.
struct TunerOptions {
  /// 0 = unlimited; otherwise a candidate measurement that runs longer is
  /// cancelled (its region's StopToken fires, cooperative) and scored as a
  /// failed evaluation with reason "deadline exceeded".
  std::int64_t candidate_deadline_ms = 0;
};

class Tuner {
 public:
  virtual ~Tuner() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Optimize starting from `config`'s current values; at most `budget`
  /// calls to `measure`.
  virtual TuningRun tune(rt::TuningConfig config, const MeasureFn& measure,
                         std::size_t budget) = 0;

  void set_options(TunerOptions options) { options_ = options; }
  [[nodiscard]] const TunerOptions& options() const { return options_; }

 protected:
  TunerOptions options_;
};

/// The paper's algorithm: sweep each dimension in turn, keeping the best
/// value found, until a full pass improves nothing or the budget runs out.
std::unique_ptr<Tuner> make_linear_tuner();

}  // namespace patty::tuning
