#pragma once
// Shared search machinery of the linear tuner (tuner.cpp) and the
// model-guided tuner (model.cpp): the flattened knob space, the
// budget/cache/hardening evaluator, and the paper's linear per-dimension
// descent (the model-guided tuner falls back to it when no cost model can
// be fit).
//
// Internal header — not part of the tuning library's public surface.

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "observe/metrics.hpp"
#include "observe/trace.hpp"
#include "runtime/cancellation.hpp"
#include "tuning/tuner.hpp"

namespace patty::tuning::detail {

/// Flattened view of a TuningConfig: name-sorted parameters with their
/// admissible value lists. Tuners work on index vectors into the domains.
struct Space {
  std::vector<std::string> names;
  std::vector<std::vector<std::int64_t>> domains;

  explicit Space(const rt::TuningConfig& config) {
    for (const auto& [name, p] : config.params()) {
      names.push_back(name);
      domains.push_back(p.domain());
    }
  }

  [[nodiscard]] std::size_t dims() const { return names.size(); }

  [[nodiscard]] std::vector<std::size_t> indices_of(
      const rt::TuningConfig& config) const {
    std::vector<std::size_t> idx(dims(), 0);
    for (std::size_t d = 0; d < dims(); ++d) {
      const std::int64_t v = config.get_or(names[d], domains[d].front());
      auto it = std::find(domains[d].begin(), domains[d].end(), v);
      idx[d] = it == domains[d].end()
                   ? 0
                   : static_cast<std::size_t>(it - domains[d].begin());
    }
    return idx;
  }

  void apply(const std::vector<std::size_t>& idx,
             rt::TuningConfig* config) const {
    for (std::size_t d = 0; d < dims(); ++d)
      config->set(names[d], domains[d][idx[d]]);
  }

  [[nodiscard]] std::vector<std::int64_t> values(
      const std::vector<std::size_t>& idx) const {
    std::vector<std::int64_t> out(dims());
    for (std::size_t d = 0; d < dims(); ++d) out[d] = domains[d][idx[d]];
    return out;
  }

  [[nodiscard]] std::uint64_t size() const {
    std::uint64_t total = 1;
    for (const auto& dom : domains)
      total *= static_cast<std::uint64_t>(dom.size());
    return total;
  }
};

/// Shared evaluation bookkeeping: the run's memo, budget, history, and
/// candidate hardening — a measurement that throws or outruns the deadline
/// becomes a failed evaluation (score +inf) instead of aborting the search.
/// A stop of the caller's region (the ambient token at construction) ends
/// the search: the running measurement is cancelled through its chained
/// stop source, and no further one starts.
///
/// The memo belongs to one run: a point it revisits is answered without
/// measuring or spending budget, and no other run's measurement can
/// become its best.
struct Evaluator {
  const Space& space;
  rt::TuningConfig config;
  const MeasureFn& measure;
  std::size_t budget;
  TunerOptions options;
  TuningRun run;
  /// Measured scores keyed by the name-sorted value vector.
  std::map<std::vector<std::int64_t>, double> memo;
  /// The caller's region: every candidate's stop source chains to it.
  rt::StopToken enclosing = rt::current_stop_token();

  Evaluator(const Space& s, rt::TuningConfig c, const MeasureFn& m,
            std::size_t b, TunerOptions o = {})
      : space(s),
        config(std::move(c)),
        measure(m),
        budget(b),
        options(std::move(o)) {}

  [[nodiscard]] bool exhausted() const {
    return run.evaluations >= budget || enclosing.stop_requested();
  }

  double eval(const std::vector<std::size_t>& idx) {
    const std::vector<std::int64_t> key = space.values(idx);
    if (auto it = memo.find(key); it != memo.end()) return it->second;
    if (enclosing.stop_requested())
      return std::numeric_limits<double>::infinity();
    space.apply(idx, &config);
    // One trace span per MeasureFn call, with the probed configuration
    // (and afterwards the score) attached: the tuning cycle becomes a row
    // of "tuner.eval" slices in the Chrome trace.
    const bool telemetry = observe::enabled();
    observe::Span span("tuner.eval", "tuning");
    // Candidate scope: the StopSource installed as the ambient token stops
    // on the candidate deadline or with the enclosing region, every region
    // the measurement runs (they all read current_stop_token()) cancels
    // cooperatively, and the resulting OperationCancelled lands in the
    // catch below.
    double score = 0.0;
    bool failed = false;
    std::string failure;
    {
      rt::StopSource stop(enclosing);
      std::optional<rt::ScopedDeadline> deadline;
      if (options.candidate_deadline_ms > 0)
        deadline.emplace(
            stop, std::chrono::milliseconds(options.candidate_deadline_ms));
      rt::StopScope ambient(stop.token());
      try {
        score = measure(config);
      } catch (const std::exception& e) {
        failed = true;
        failure = e.what();
      } catch (...) {
        failed = true;
        failure = "unknown exception";
      }
      if (deadline && deadline->expired()) {
        failed = true;
        failure = "deadline exceeded";
      }
    }
    if (failed) {
      score = std::numeric_limits<double>::infinity();
      ++run.failed_evaluations;
      if (telemetry)
        observe::Registry::global().counter("tuner.failed_evaluations").add();
    }
    if (telemetry) {
      // Score first (it must survive the detail cap), then the probed
      // values with the shared qualifier prefix stripped — parameter names
      // like "VideoApp.Process.pipeline@38.buffer" would otherwise crowd
      // the whole configuration out of the span.
      std::size_t prefix = 0;
      if (space.dims() > 1) {
        const std::string& first = space.names.front();
        std::size_t common = first.size();
        for (const std::string& n : space.names)
          common = std::min(
              common,
              static_cast<std::size_t>(
                  std::mismatch(first.begin(),
                                first.begin() +
                                    static_cast<std::ptrdiff_t>(
                                        std::min(common, n.size())),
                                n.begin())
                      .first -
                  first.begin()));
        const std::size_t dot = first.rfind('.', common);
        if (dot != std::string::npos) prefix = dot + 1;
      }
      std::string detail = "score=" + std::to_string(score);
      for (std::size_t d = 0; d < space.dims(); ++d) {
        detail += ' ';
        detail += space.names[d].substr(prefix) + "=" +
                  std::to_string(space.domains[d][idx[d]]);
      }
      span.set_detail(detail);
      observe::Registry::global().counter("tuner.evaluations").add();
      observe::Registry::global().histogram("tuner.score").record(score);
    }
    ++run.evaluations;
    memo[key] = score;
    run.history.push_back({key, score, failed, failure});
    // A failed candidate (score +inf) can only become "best" as the very
    // first entry, and any finite score later replaces it.
    if (run.history.size() == 1 || score < run.best_score) {
      run.best_score = score;
      run.best = config;
    }
    return score;
  }
};

/// The paper's linear per-dimension descent, from `current`: sweep each
/// dimension keeping the best value, until a full pass improves nothing or
/// the budget runs out. Used by the linear tuner and as the model-guided
/// tuner's no-model fallback.
inline void linear_descend(Evaluator& ev, const Space& space,
                           std::vector<std::size_t> current) {
  double current_score = ev.eval(current);
  bool improved = true;
  while (improved && !ev.exhausted()) {
    improved = false;
    for (std::size_t d = 0; d < space.dims() && !ev.exhausted(); ++d) {
      std::size_t best_i = current[d];
      for (std::size_t i = 0; i < space.domains[d].size(); ++i) {
        if (i == current[d]) continue;
        if (ev.exhausted()) break;
        std::vector<std::size_t> probe = current;
        probe[d] = i;
        const double score = ev.eval(probe);
        if (score < current_score) {
          current_score = score;
          best_i = i;
        }
      }
      if (best_i != current[d]) {
        current[d] = best_i;
        improved = true;
      }
    }
  }
}

}  // namespace patty::tuning::detail
