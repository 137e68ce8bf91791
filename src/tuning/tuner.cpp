#include "tuning/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>

#include "support/diagnostics.hpp"
#include "tuning/search_internal.hpp"

namespace patty::tuning {

namespace {

using detail::Evaluator;
using detail::Space;

class LinearTuner final : public Tuner {
 public:
  [[nodiscard]] std::string name() const override { return "linear"; }

  TuningRun tune(rt::TuningConfig config, const MeasureFn& measure,
                 std::size_t budget) override {
    const Space space(config);
    Evaluator ev(space, config, measure, budget, options_);
    detail::linear_descend(ev, space, space.indices_of(config));
    return std::move(ev.run);
  }
};

class RandomTuner final : public Tuner {
 public:
  explicit RandomTuner(std::uint64_t seed) : seed_(seed) {}
  [[nodiscard]] std::string name() const override { return "random"; }

  TuningRun tune(rt::TuningConfig config, const MeasureFn& measure,
                 std::size_t budget) override {
    const Space space(config);
    Evaluator ev(space, config, measure, budget, options_);
    Rng rng(seed_);
    ev.eval(space.indices_of(config));  // include the starting point
    // The whole space may be smaller than the budget: stop once every
    // point has been visited (duplicates cost no budget).
    const std::uint64_t total = space.size();
    while (!ev.exhausted() && ev.memo.size() < total) {
      std::vector<std::size_t> idx(space.dims());
      for (std::size_t d = 0; d < space.dims(); ++d)
        idx[d] = static_cast<std::size_t>(
            rng.next_below(space.domains[d].size()));
      if (ev.memo.count(space.values(idx))) continue;  // try another point
      ev.eval(idx);
    }
    return std::move(ev.run);
  }

 private:
  std::uint64_t seed_;
};

class NelderMeadTuner final : public Tuner {
 public:
  explicit NelderMeadTuner(std::uint64_t seed) : seed_(seed) {}
  [[nodiscard]] std::string name() const override { return "nelder-mead"; }

  TuningRun tune(rt::TuningConfig config, const MeasureFn& measure,
                 std::size_t budget) override {
    const Space space(config);
    Evaluator ev(space, config, measure, budget, options_);
    Rng rng(seed_);
    const std::size_t n = space.dims();

    auto clamp_round = [&](const std::vector<double>& x) {
      std::vector<std::size_t> idx(n);
      for (std::size_t d = 0; d < n; ++d) {
        const double hi = static_cast<double>(space.domains[d].size() - 1);
        double v = std::round(x[d]);
        v = std::max(0.0, std::min(hi, v));
        idx[d] = static_cast<std::size_t>(v);
      }
      return idx;
    };

    struct Point {
      std::vector<double> x;
      double score;
    };

    // One simplex descent; restarts from random points reuse it while
    // budget remains (discrete/boolean dimensions strand plain NM easily).
    auto descend = [&](std::vector<double> x0) {
      std::vector<Point> simplex;
      simplex.push_back({x0, ev.eval(clamp_round(x0))});
      for (std::size_t d = 0; d < n && !ev.exhausted(); ++d) {
        std::vector<double> x = x0;
        const double span = static_cast<double>(space.domains[d].size() - 1);
        x[d] += std::max(1.0, span / 2.0) * (rng.chance(0.5) ? 1.0 : -1.0);
        simplex.push_back({x, ev.eval(clamp_round(x))});
      }
      // Cached re-evaluations are free, so the budget alone does not bound
      // the loop: cap iterations so converged simplexes stop spinning.
      std::size_t iterations_left = budget + 16;
      while (!ev.exhausted() && simplex.size() >= 2 && iterations_left-- > 0) {
        std::sort(simplex.begin(), simplex.end(),
                  [](const Point& a, const Point& b) { return a.score < b.score; });
        const Point& worst = simplex.back();
        std::vector<double> centroid(n, 0.0);
        for (std::size_t i = 0; i + 1 < simplex.size(); ++i)
          for (std::size_t d = 0; d < n; ++d) centroid[d] += simplex[i].x[d];
        for (double& c : centroid)
          c /= static_cast<double>(simplex.size() - 1);

        auto blend = [&](double alpha) {
          std::vector<double> x(n);
          for (std::size_t d = 0; d < n; ++d)
            x[d] = centroid[d] + alpha * (centroid[d] - worst.x[d]);
          return x;
        };
        std::vector<double> reflected = blend(1.0);
        const double r_score = ev.eval(clamp_round(reflected));
        if (r_score < simplex.front().score && !ev.exhausted()) {
          std::vector<double> expanded = blend(2.0);
          const double e_score = ev.eval(clamp_round(expanded));
          simplex.back() = e_score < r_score ? Point{expanded, e_score}
                                             : Point{reflected, r_score};
        } else if (r_score < worst.score) {
          simplex.back() = Point{reflected, r_score};
        } else if (!ev.exhausted()) {
          std::vector<double> contracted = blend(-0.5);
          const double c_score = ev.eval(clamp_round(contracted));
          if (c_score < worst.score) {
            simplex.back() = Point{contracted, c_score};
          } else {
            // Shrink toward the best vertex; a fully collapsed simplex
            // means this descent converged.
            bool moved = false;
            for (std::size_t i = 1; i < simplex.size() && !ev.exhausted();
                 ++i) {
              for (std::size_t d = 0; d < n; ++d) {
                const double mid = (simplex[i].x[d] + simplex[0].x[d]) / 2.0;
                if (std::fabs(mid - simplex[i].x[d]) > 1e-9) moved = true;
                simplex[i].x[d] = mid;
              }
              simplex[i].score = ev.eval(clamp_round(simplex[i].x));
            }
            if (!moved) return;
          }
        }
      }
    };

    const std::vector<std::size_t> start = space.indices_of(config);
    std::vector<double> x0(n);
    for (std::size_t d = 0; d < n; ++d) x0[d] = static_cast<double>(start[d]);
    descend(std::move(x0));
    while (!ev.exhausted()) {
      std::vector<double> xr(n);
      for (std::size_t d = 0; d < n; ++d)
        xr[d] = static_cast<double>(rng.next_below(space.domains[d].size()));
      const std::size_t before = ev.run.evaluations;
      descend(std::move(xr));
      if (ev.run.evaluations == before) break;  // space exhausted via memo
    }
    return std::move(ev.run);
  }

 private:
  std::uint64_t seed_;
};

class TabuTuner final : public Tuner {
 public:
  TabuTuner(std::uint64_t seed, std::size_t tenure)
      : seed_(seed), tenure_(tenure) {}
  [[nodiscard]] std::string name() const override { return "tabu"; }

  TuningRun tune(rt::TuningConfig config, const MeasureFn& measure,
                 std::size_t budget) override {
    const Space space(config);
    Evaluator ev(space, config, measure, budget, options_);
    Rng rng(seed_);
    std::vector<std::size_t> current = space.indices_of(config);
    double current_score = ev.eval(current);
    std::deque<std::pair<std::size_t, std::size_t>> tabu;  // (dim, index)

    auto is_tabu = [&](std::size_t d, std::size_t i) {
      for (const auto& [td, ti] : tabu)
        if (td == d && ti == i) return true;
      return false;
    };

    while (!ev.exhausted()) {
      // Neighborhood: +-1 step in each dimension.
      std::vector<std::pair<std::size_t, std::size_t>> moves;
      for (std::size_t d = 0; d < space.dims(); ++d) {
        if (current[d] + 1 < space.domains[d].size())
          moves.emplace_back(d, current[d] + 1);
        if (current[d] > 0) moves.emplace_back(d, current[d] - 1);
      }
      if (moves.empty()) break;
      rng.shuffle(moves);

      bool moved = false;
      std::size_t best_d = 0, best_i = 0;
      double best_score = 0.0;
      bool have_best = false;
      for (const auto& [d, i] : moves) {
        if (ev.exhausted()) break;
        std::vector<std::size_t> probe = current;
        probe[d] = i;
        const double score = ev.eval(probe);
        const bool aspiration = score < ev.run.best_score;
        if (is_tabu(d, i) && !aspiration) continue;
        if (!have_best || score < best_score) {
          have_best = true;
          best_score = score;
          best_d = d;
          best_i = i;
        }
      }
      if (!have_best) break;
      tabu.emplace_back(best_d, current[best_d]);  // forbid moving back
      while (tabu.size() > tenure_) tabu.pop_front();
      current[best_d] = best_i;
      current_score = best_score;
      (void)current_score;
      moved = true;
      (void)moved;
    }
    return std::move(ev.run);
  }

 private:
  std::uint64_t seed_;
  std::size_t tenure_;
};

}  // namespace

std::unique_ptr<Tuner> make_linear_tuner() {
  return std::make_unique<LinearTuner>();
}
std::unique_ptr<Tuner> make_random_tuner(std::uint64_t seed) {
  return std::make_unique<RandomTuner>(seed);
}
std::unique_ptr<Tuner> make_nelder_mead_tuner(std::uint64_t seed) {
  return std::make_unique<NelderMeadTuner>(seed);
}
std::unique_ptr<Tuner> make_tabu_tuner(std::uint64_t seed,
                                       std::size_t tenure) {
  return std::make_unique<TabuTuner>(seed, tenure);
}

}  // namespace patty::tuning
