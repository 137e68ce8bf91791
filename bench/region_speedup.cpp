// EXPERIMENTS E3's per-region table, on the host's real cores: for every
// region of the five handwritten programs and of the perfbench `execute`
// suite at seed 41 (its 25 synthetic programs, without perfbench's print
// edit to main), the speedup the design-time model predicts at default
// knobs, the plan executor's gate decision, and the speedup measured with
// that region alone enabled.
//
// "Alone enabled" is an executor given only that candidate and its default
// tuning file, so the gate does not apply and every other region runs on
// the interpreter. Each run of it is paired with a plain interpreter run of
// the whole program, the two sides taking turns to go first; the speedup is
// the pair's time ratio (run phase only, executor construction excluded),
// reported as the median and quartiles of 8 pairs. The region's own speedup follows from its runtime share s and
// the whole-program median m as s / (1/m - (1 - s)) (Amdahl), comparable to
// the prediction; the profiled share is only an estimate, so it is shown
// as "implied". The table ends with the gate's two checks: a region it runs
// sequentially that measured above 1.3x (regret), and a region it runs in
// parallel that measured below 1.0x.

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/semantic_model.hpp"
#include "corpus/corpus.hpp"
#include "lang/sema.hpp"
#include "patterns/detector.hpp"
#include "support/stats.hpp"
#include "transform/plan.hpp"
#include "tuning/model.hpp"

namespace {

using namespace patty;
using Clock = std::chrono::steady_clock;

constexpr int kPairs = 8;
constexpr double kRegretBound = 1.3;

double elapsed_us(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

struct Checks {
  int regret = 0;           // gated, but measured above kRegretBound
  int slow_parallel = 0;    // run in parallel, but measured below 1.0x
};

void measure_program(const corpus::CorpusProgram& source, Checks* checks) {
  DiagnosticSink diags;
  const auto program = lang::parse_and_check(source.source, diags);
  if (!program) {
    std::fprintf(stderr, "%s: %s\n", source.name.c_str(),
                 diags.to_string().c_str());
    return;
  }
  const auto model = analysis::SemanticModel::build(*program);
  const std::vector<patterns::Candidate> candidates =
      patterns::detect_all(*model).candidates;
  const std::vector<tuning::SpeedupPrediction> predictions =
      tuning::predict_speedups(candidates);

  // The gate's decisions: one untuned run, as perfbench `execute` makes.
  transform::ParallelPlanExecutor gated(*program, candidates);
  gated.run_main();
  const std::vector<transform::PlanReport> reports = gated.reports();

  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const patterns::Candidate& c = candidates[i];
    std::string decision = "not entered";
    bool parallel = false;
    for (const transform::PlanReport& r : reports) {
      if (r.loop_stmt_id != c.anchor->id) continue;
      parallel = r.ran_parallel;
      decision = parallel ? "parallel" : "sequential";
    }

    auto row = [&](const std::string& measured, const std::string& implied) {
      std::printf("| %s | %s %s@%u | %.1f%% | %s | %.2fx | %s | %s | %s |\n",
                  source.name.c_str(),
                  c.method ? std::string(c.method->name).c_str() : "?",
                  patterns::pattern_kind_name(c.kind),
                  c.anchor->range.begin.line, 100.0 * c.runtime_share,
                  predictions[i].leaves.c_str(),
                  predictions[i].default_speedup, decision.c_str(),
                  measured.c_str(), implied.c_str());
    };
    const std::vector<patterns::Candidate> alone = {c};
    const rt::TuningConfig config = transform::default_tuning(alone);
    std::vector<double> ratios;
    for (int pair = 0; pair < kPairs; ++pair) {
      double sequential_us = 0.0;
      double parallel_us = 0.0;
      auto run_plain = [&] {
        analysis::Interpreter plain(*program);
        const Clock::time_point t0 = Clock::now();
        plain.run_main();
        sequential_us = elapsed_us(t0);
      };
      auto run_alone = [&] {
        transform::ParallelPlanExecutor executor(*program, alone, &config);
        const Clock::time_point t0 = Clock::now();
        executor.run_main();
        parallel_us = elapsed_us(t0);
      };
      if (pair % 2 == 0) {
        run_plain();
        run_alone();
      } else {
        run_alone();
        run_plain();
      }
      ratios.push_back(sequential_us / parallel_us);
    }
    const Quantiles q(ratios);
    const double measured = q.q(0.5);
    char text[64];
    std::snprintf(text, sizeof text, "%.2fx (%.2f-%.2f)", measured, q.q(0.25),
                  q.q(0.75));
    const double s = c.runtime_share;
    const double rest = 1.0 / measured - (1.0 - s);
    char implied[32] = "-";
    if (s >= 0.05 && rest > 0.0)
      std::snprintf(implied, sizeof implied, "%.2fx", s / rest);
    row(text, implied);
    if (decision == "sequential" && measured > kRegretBound) ++checks->regret;
    if (parallel && measured < 1.0) ++checks->slow_parallel;
  }
}

}  // namespace

int main() {
  std::printf("rate %.2f us per cost unit, %d threads\n\n",
              tuning::kUsPerCost, tuning::Hardware{}.effective());
  std::printf("| program | region | share | leaves | predicted | gate | "
              "measured alone (IQR) | region (implied) |\n"
              "|---|---|---|---|---|---|---|---|\n");
  Checks checks;
  for (const corpus::CorpusProgram* p : corpus::handwritten())
    measure_program(*p, &checks);

  corpus::SyntheticConfig config;
  config.programs = 25;
  config.seed = 41;
  config.min_elems = 256;
  config.max_elems = 512;
  config.scatter_kernels = false;
  config.indirect_kernels = false;
  for (const corpus::CorpusProgram& p : corpus::synthetic_suite(config))
    measure_program(p, &checks);

  std::printf("\nregret (gated, measured above %.1fx): %d region(s)\n",
              kRegretBound, checks.regret);
  std::printf("parallel but measured below 1.0x: %d region(s)\n",
              checks.slow_parallel);
  return 0;
}
