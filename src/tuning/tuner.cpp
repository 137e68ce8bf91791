#include "tuning/tuner.hpp"

#include <utility>

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

}  // namespace

std::unique_ptr<Tuner> make_linear_tuner() {
  return std::make_unique<LinearTuner>();
}

}  // namespace patty::tuning
