#include "transform/testgen.hpp"

#include <algorithm>
#include <map>
#include <set>

#include "analysis/interpreter.hpp"
#include "analysis/profiler.hpp"
#include "lang/sema.hpp"
#include "patterns/region_plan.hpp"
#include "race/explorer.hpp"
#include "transform/plan.hpp"

namespace patty::transform {

using patterns::Candidate;
using patterns::PatternKind;

namespace {

rt::TuningConfig config_with(const Candidate& c,
                             const std::map<std::string, std::int64_t>&
                                 overrides_by_suffix) {
  rt::TuningConfig config = default_tuning({c});
  for (const auto& [name, p] : config.params()) {
    (void)p;
    for (const auto& [suffix, value] : overrides_by_suffix) {
      if (name.size() >= suffix.size() &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        config.set(name, value);
      }
    }
  }
  return config;
}

/// `config` with every StageFusion flag on.
rt::TuningConfig fuse_all(rt::TuningConfig config) {
  for (const auto& [name, p] : config.params()) {
    (void)p;
    if (name.compare(patterns::knob_prefix(name).size(), 4, "fuse") == 0)
      config.set(name, 1);
  }
  return config;
}

}  // namespace

std::vector<ParallelUnitTest> generate_unit_tests(
    const std::vector<Candidate>& candidates, TestGenOptions options) {
  std::vector<ParallelUnitTest> tests;
  const std::int64_t R = options.max_replication;

  for (const Candidate& c : candidates) {
    const std::string base = std::string(pattern_kind_name(c.kind)) + "@" +
                             c.location();
    switch (c.kind) {
      case PatternKind::Pipeline: {
        tests.push_back({base + "/default", &c, default_tuning({c}), false});
        tests.push_back({base + "/max-replication-ordered", &c,
                         config_with(c, {{".replication", R}, {".order", 1}}),
                         false});
        tests.push_back(
            {base + "/fused", &c, fuse_all(default_tuning({c})), false});
        // Fused groups that hold a replicable stage: each runs at the
        // replication its plan gives it, 1 where it holds a stage that
        // prints or carries state.
        tests.push_back({base + "/fused-max-replication", &c,
                         fuse_all(config_with(c, {{".replication", R}})),
                         false});
        tests.push_back({base + "/tiny-buffers", &c,
                         config_with(c, {{".buffer", 1}, {".replication", R}}),
                         false});
        if (options.include_order_violation_probe) {
          tests.push_back(
              {base + "/order-preservation-off", &c,
               config_with(c, {{".replication", R}, {".order", 0}}),
               /*expects_possible_order_violation=*/true});
        }
        break;
      }
      case PatternKind::DataParallelLoop: {
        tests.push_back({base + "/default", &c, default_tuning({c}), false});
        tests.push_back({base + "/many-threads-fine-grain", &c,
                         config_with(c, {{".threads", R}, {".grain", 1}}),
                         false});
        tests.push_back({base + "/two-threads-coarse", &c,
                         config_with(c, {{".threads", 2}, {".grain", 64}}),
                         false});
        break;
      }
      case PatternKind::MasterWorker: {
        tests.push_back({base + "/shared-pool", &c, default_tuning({c}), false});
        tests.push_back({base + "/dedicated-crew", &c,
                         config_with(c, {{".workers", R}}), false});
        break;
      }
    }
  }
  return tests;
}

TestOutcome run_unit_test(const lang::Program& program,
                          const ParallelUnitTest& test,
                          std::size_t repetitions) {
  TestOutcome outcome;
  outcome.repetitions = repetitions;

  // Sequential reference.
  analysis::Interpreter reference(program);
  analysis::Value ref_result;
  try {
    ref_result = reference.run_main();
  } catch (const analysis::RuntimeError& e) {
    outcome.detail = "sequential reference failed: " + e.message;
    return outcome;
  }
  const std::string ref_output = reference.output();

  for (std::size_t rep = 0; rep < repetitions; ++rep) {
    ParallelPlanExecutor executor(program, {*test.candidate}, &test.config);
    analysis::Value result;
    try {
      result = executor.run_main();
    } catch (const analysis::RuntimeError& e) {
      outcome.detail = "parallel run failed: " + e.message;
      return outcome;
    }
    if (!result.equals(ref_result)) {
      outcome.detail = "result mismatch on repetition " + std::to_string(rep) +
                       ": sequential=" + ref_result.str() +
                       " parallel=" + result.str();
      return outcome;
    }
    if (executor.output() != ref_output) {
      outcome.detail = "output mismatch on repetition " + std::to_string(rep);
      return outcome;
    }
  }
  outcome.passed = true;
  outcome.detail = "equivalent over " + std::to_string(repetitions) + " runs";
  return outcome;
}

namespace {

/// Last configured value for any parameter whose name ends in `suffix`.
std::int64_t config_suffix_or(const rt::TuningConfig& config,
                              const std::string& suffix,
                              std::int64_t fallback) {
  std::int64_t value = fallback;
  for (const auto& [name, p] : config.params()) {
    if (name.size() >= suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0)
      value = p.value;
  }
  return value;
}

}  // namespace

bool same_failure_class(const std::string& a, const std::string& b) {
  auto failure_class = [](std::string_view msg) {
    const auto pos = msg.rfind(": ");
    return pos == std::string_view::npos ? msg : msg.substr(pos + 2);
  };
  return failure_class(a) == failure_class(b);
}

ExplorationOutcome explore_order_probe(const ParallelUnitTest& test,
                                       int preemption_bound) {
  const auto replication =
      static_cast<int>(config_suffix_or(test.config, ".replication", 1));
  const bool ordered = config_suffix_or(test.config, ".order", 1) != 0;

  // Each worker of the replicated stage emits one item. Ordered emission
  // reassembles by the item's sequence number (worker i owns slot i);
  // unordered emission appends at a shared cursor, so the slot a worker
  // lands in depends on the schedule — landing anywhere but slot i is the
  // order violation the probe is hunting.
  std::vector<race::TaskFn> workers;
  for (int i = 0; i < std::max(replication, 1); ++i) {
    workers.push_back([i, ordered](race::TaskContext& ctx) {
      if (ordered) {
        ctx.write("out" + std::to_string(i), i);
      } else {
        const std::int64_t pos = ctx.fetch_add("cursor", 1);
        ctx.write("out" + std::to_string(pos), i);
        ctx.check(pos == i, "item " + std::to_string(i) + " emitted at slot " +
                                std::to_string(pos) + ": order violated");
      }
    });
  }

  race::ExploreOptions opts;
  opts.preemption_bound = preemption_bound;
  const race::ExploreResult result = race::explore(workers, opts);

  ExplorationOutcome outcome;
  outcome.schedules_explored = result.schedules_explored;
  outcome.exhausted = result.exhausted;
  outcome.order_violation_possible = !result.assertion_failures.empty();
  if (outcome.order_violation_possible) {
    outcome.detail = result.assertion_failures.front();
    for (const race::ScheduleFailure& f : result.failing_schedules) {
      if (f.kind == race::ScheduleFailure::Kind::Assertion &&
          f.detail == outcome.detail) {
        outcome.failing_schedule = f.schedule.to_string();
        break;
      }
    }
    // The serialized schedule is only evidence if it replays: round-trip
    // through the textual form and re-execute standalone.
    if (const auto parsed = race::Schedule::from_string(
            outcome.failing_schedule)) {
      // Compare on failure class, not message bytes: the replay re-executes
      // every worker, so the violation may surface on a different item/slot
      // pair while still being the identical kind of failure at the same
      // site — previously such replays were silently reported unverified.
      const race::ReplayResult rep = race::replay(workers, *parsed, opts);
      for (const std::string& msg : rep.assertion_failures)
        if (same_failure_class(msg, outcome.detail))
          outcome.replay_verified = true;
    }
  }
  return outcome;
}

std::vector<std::size_t> select_covering_inputs(
    const std::vector<std::string>& variant_sources, std::string* error) {
  // Profile each variant; collect its covered branch outcomes as
  // (stmt line, taken) pairs — line-keyed so distinct parses align.
  using Outcome = std::pair<std::uint32_t, bool>;
  std::vector<std::set<Outcome>> covered(variant_sources.size());
  std::set<Outcome> universe;

  for (std::size_t v = 0; v < variant_sources.size(); ++v) {
    DiagnosticSink diags;
    auto program = lang::parse_and_check(variant_sources[v], diags);
    if (!program) {
      if (error) *error = "variant " + std::to_string(v) + ": " + diags.to_string();
      return {};
    }
    analysis::Profiler profiler(*program);
    analysis::Interpreter interp(*program, &profiler);
    try {
      interp.run_main();
    } catch (const analysis::RuntimeError& e) {
      if (error) *error = "variant " + std::to_string(v) + ": " + e.message;
      return {};
    }
    profiler.finish();
    for (const auto& [id, branch] : profiler.branches()) {
      // Key by source line: ids differ across parses of different variants.
      const std::uint32_t line = branch.if_stmt->range.begin.line;
      if (branch.taken > 0) {
        covered[v].insert({line, true});
        universe.insert({line, true});
      }
      if (branch.not_taken > 0) {
        covered[v].insert({line, false});
        universe.insert({line, false});
      }
    }
  }

  // Greedy set cover.
  std::vector<std::size_t> chosen;
  std::set<Outcome> remaining = universe;
  std::vector<bool> used(variant_sources.size(), false);
  while (!remaining.empty()) {
    std::size_t best = variant_sources.size();
    std::size_t best_gain = 0;
    for (std::size_t v = 0; v < variant_sources.size(); ++v) {
      if (used[v]) continue;
      std::size_t gain = 0;
      for (const Outcome& o : covered[v])
        if (remaining.count(o)) ++gain;
      if (gain > best_gain) {
        best_gain = gain;
        best = v;
      }
    }
    if (best == variant_sources.size()) break;  // nothing adds coverage
    used[best] = true;
    chosen.push_back(best);
    for (const Outcome& o : covered[best]) remaining.erase(o);
  }
  return chosen;
}

}  // namespace patty::transform
