// Pipeline pattern tests, including TEST_P sweeps: for every combination of
// tuning-parameter values the pipeline must produce the same multiset of
// results as sequential execution, and order-preserving configurations must
// produce the exact sequence. This is the paper's core claim about tuning
// parameters: they change performance, never semantics.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <thread>

#include "observe/explain.hpp"
#include "observe/trace.hpp"
#include "runtime/pipeline.hpp"

namespace patty::rt {
namespace {

struct Elem {
  int id = 0;
  int value = 0;
};

std::function<std::optional<Elem>()> counting_source(int n) {
  auto i = std::make_shared<int>(0);
  return [i, n]() -> std::optional<Elem> {
    if (*i >= n) return std::nullopt;
    Elem e{*i, *i};
    ++*i;
    return e;
  };
}

TEST(PipelineTest, SingleStageIdentity) {
  Pipeline<Elem>::Stage s{"id", [](Elem&) {}, 1, false, false};
  Pipeline<Elem> p({s});
  std::vector<Elem> out;
  p.run(counting_source(10), [&](Elem&& e) { out.push_back(e); });
  ASSERT_EQ(out.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)].id, i);
}

TEST(PipelineTest, StagesComposeInOrder) {
  Pipeline<Elem> p({
      {"add3", [](Elem& e) { e.value += 3; }, 1, false, false},
      {"times2", [](Elem& e) { e.value *= 2; }, 1, false, false},
  });
  std::vector<Elem> out;
  p.run(counting_source(5), [&](Elem&& e) { out.push_back(e); });
  for (const Elem& e : out) EXPECT_EQ(e.value, (e.id + 3) * 2);
}

TEST(PipelineTest, EmptyStream) {
  Pipeline<Elem> p({{"s", [](Elem&) {}, 1, false, false}});
  int count = 0;
  auto stats = p.run([]() -> std::optional<Elem> { return std::nullopt; },
                     [&](Elem&&) { ++count; });
  EXPECT_EQ(count, 0);
  EXPECT_EQ(stats.elements, 0u);
}

TEST(PipelineTest, UnreplicatedStagesPreserveOrderImplicitly) {
  Pipeline<Elem> p({
      {"a", [](Elem& e) { e.value += 1; }, 1, false, false},
      {"b", [](Elem& e) { e.value += 1; }, 1, false, false},
      {"c", [](Elem& e) { e.value += 1; }, 1, false, false},
  });
  std::vector<int> ids;
  p.run(counting_source(200), [&](Elem&& e) { ids.push_back(e.id); });
  ASSERT_EQ(ids.size(), 200u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

TEST(PipelineTest, ReplicatedStageWithOrderPreservationKeepsSequence) {
  // Variable per-element delay maximizes reordering pressure.
  Pipeline<Elem>::Stage work{
      "work",
      [](Elem& e) {
        volatile int spin = (e.id % 7) * 1000;
        while (spin > 0) --spin;
        e.value = e.id * 10;
      },
      4, /*preserve_order=*/true, false};
  Pipeline<Elem> p({work});
  std::vector<int> ids;
  p.run(counting_source(500), [&](Elem&& e) { ids.push_back(e.id); });
  ASSERT_EQ(ids.size(), 500u);
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
}

TEST(PipelineTest, ReplicatedStageWithoutOrderStillCompleteAndCorrect) {
  Pipeline<Elem>::Stage work{
      "work",
      [](Elem& e) {
        volatile int spin = (e.id % 5) * 800;
        while (spin > 0) --spin;
        e.value = e.id + 1000;
      },
      4, /*preserve_order=*/false, false};
  Pipeline<Elem> p({work});
  std::vector<Elem> out;
  p.run(counting_source(300), [&](Elem&& e) { out.push_back(e); });
  ASSERT_EQ(out.size(), 300u);
  std::vector<bool> seen(300, false);
  for (const Elem& e : out) {
    EXPECT_EQ(e.value, e.id + 1000);
    EXPECT_FALSE(seen[static_cast<std::size_t>(e.id)]) << "duplicate " << e.id;
    seen[static_cast<std::size_t>(e.id)] = true;
  }
}

TEST(PipelineTest, FusionMergesStages) {
  Pipeline<Elem> p({
      {"a", [](Elem& e) { e.value += 1; }, 1, false, /*fuse=*/true},
      {"b", [](Elem& e) { e.value *= 3; }, 1, false, false},
      {"c", [](Elem& e) { e.value -= 2; }, 1, false, false},
  });
  EXPECT_EQ(p.stage_count_after_fusion(), 2u);
  std::vector<Elem> out;
  p.run(counting_source(20), [&](Elem&& e) { out.push_back(e); });
  for (const Elem& e : out) EXPECT_EQ(e.value, (e.id + 1) * 3 - 2);
}

TEST(PipelineTest, FuseAllStagesIntoOne) {
  Pipeline<Elem> p({
      {"a", [](Elem& e) { e.value += 1; }, 1, false, true},
      {"b", [](Elem& e) { e.value += 1; }, 1, false, true},
      {"c", [](Elem& e) { e.value += 1; }, 1, false, false},
  });
  EXPECT_EQ(p.stage_count_after_fusion(), 1u);
  std::vector<Elem> out;
  p.run(counting_source(10), [&](Elem&& e) { out.push_back(e); });
  for (const Elem& e : out) EXPECT_EQ(e.value, e.id + 3);
}

TEST(PipelineTest, SequentialExecutionMatchesParallel) {
  auto make_stages = [] {
    return std::vector<Pipeline<Elem>::Stage>{
        {"a", [](Elem& e) { e.value = e.value * 2 + 1; }, 2, true, false},
        {"b", [](Elem& e) { e.value = e.value * e.value % 9973; }, 1, false, false},
    };
  };
  PipelineConfig seq_cfg;
  seq_cfg.sequential = true;
  Pipeline<Elem> seq(make_stages(), seq_cfg);
  Pipeline<Elem> par(make_stages());
  std::vector<int> seq_vals, par_vals;
  seq.run(counting_source(100), [&](Elem&& e) { seq_vals.push_back(e.value); });
  par.run(counting_source(100), [&](Elem&& e) { par_vals.push_back(e.value); });
  std::sort(par_vals.begin(), par_vals.end());
  std::sort(seq_vals.begin(), seq_vals.end());
  EXPECT_EQ(seq_vals, par_vals);
}

TEST(PipelineTest, SequentialUsesNoThreads) {
  PipelineConfig cfg;
  cfg.sequential = true;
  Pipeline<Elem> p({{"s", [](Elem&) {}, 4, true, false}}, cfg);
  auto stats = p.run(counting_source(5), [](Elem&&) {});
  EXPECT_EQ(stats.threads_used, 0u);
  EXPECT_EQ(stats.elements, 5u);
}

TEST(PipelineTest, StatsCountThreadsAndElements) {
  Pipeline<Elem> p({
      {"a", [](Elem&) {}, 3, false, false},
      {"b", [](Elem&) {}, 1, false, false},
  });
  auto stats = p.run(counting_source(50), [](Elem&&) {});
  EXPECT_EQ(stats.elements, 50u);
  // 3 workers for stage a, 1 for stage b, plus the stream-generator thread.
  EXPECT_EQ(stats.threads_used, 5u);
  EXPECT_EQ(stats.stages_after_fusion, 2u);
}

TEST(PipelineTest, RunOverCollectsResults) {
  Pipeline<int> p({{"inc", [](int& v) { ++v; }, 1, false, false}});
  const std::vector<int> input{1, 2, 3};
  std::size_t next = 0;
  std::vector<int> out;
  p.run(
      [&]() -> std::optional<int> {
        if (next == input.size()) return std::nullopt;
        return input[next++];
      },
      [&out](int&& v) { out.push_back(v); });
  EXPECT_EQ(out, (std::vector<int>{2, 3, 4}));
}

TEST(PipelineTest, TinyBufferCapacityStillCompletes) {
  PipelineConfig cfg;
  cfg.buffer_capacity = 1;
  Pipeline<Elem> p(
      {
          {"a", [](Elem& e) { e.value += 1; }, 2, true, false},
          {"b", [](Elem& e) { e.value += 1; }, 2, true, false},
          {"c", [](Elem& e) { e.value += 1; }, 1, false, false},
      },
      cfg);
  std::vector<Elem> out;
  p.run(counting_source(200), [&](Elem&& e) { out.push_back(e); });
  ASSERT_EQ(out.size(), 200u);
  for (const Elem& e : out) EXPECT_EQ(e.value, e.id + 3);
}

TEST(PipelineTest, ExplainIdentifiesSlowMiddleStage) {
  // Telemetry on: the run must publish a per-stage observation whose
  // bottleneck verdict names the deliberately slow middle stage. Sleep-based
  // work keeps busy-time attribution robust on single-core hosts.
#ifdef PATTY_OBSERVE_DISABLED
  GTEST_SKIP() << "telemetry compiled out (PATTY_OBSERVE=OFF)";
#endif
  observe::set_enabled(true);
  PipelineConfig cfg;
  cfg.buffer_capacity = 4;
  cfg.name = "slow-middle";
  Pipeline<Elem> p(
      {
          {"A", [](Elem&) {}, 1, false, false},
          {"B",
           [](Elem&) {
             std::this_thread::sleep_for(std::chrono::milliseconds(2));
           },
           1, false, false},
          {"C", [](Elem&) {}, 1, false, false},
      },
      cfg);
  auto stats = p.run(counting_source(60), [](Elem&&) {});
  observe::set_enabled(false);

  ASSERT_NE(stats.observation, nullptr);
  EXPECT_EQ(stats.observation->pipeline, "slow-middle");
  EXPECT_EQ(stats.observation->elements, 60u);
  ASSERT_EQ(stats.observation->stages.size(), 3u);
  EXPECT_EQ(stats.observation->stages[1].items, 60u);

  const observe::BottleneckReport report =
      observe::explain(*stats.observation);
  EXPECT_EQ(report.stage, "B");
  EXPECT_EQ(report.stage_index, 1u);
  EXPECT_NE(report.parameter.find("StageReplication(B)"), std::string::npos)
      << report.parameter;
  // B sleeps while A streams: B's input queue must have filled.
  EXPECT_GT(stats.observation->stages[1].input_queue_full_waits, 0u);
  EXPECT_EQ(report.stall, "queue-full");
}

TEST(PipelineTest, NoObservationWhenTelemetryDisabled) {
  ASSERT_FALSE(observe::enabled());
  Pipeline<Elem> p({{"s", [](Elem&) {}, 1, false, false}});
  auto stats = p.run(counting_source(10), [](Elem&&) {});
  EXPECT_EQ(stats.observation, nullptr);
}

// --- Property sweep over the tuning space -------------------------------------
// (replication, order preservation, fusion, sequential, buffer capacity)

struct TuningCase {
  int replication;
  bool preserve_order;
  bool fuse;
  bool sequential;
  std::size_t capacity;
};

class PipelineTuningSweep : public ::testing::TestWithParam<TuningCase> {};

TEST_P(PipelineTuningSweep, SemanticsInvariantUnderTuning) {
  const TuningCase tc = GetParam();
  PipelineConfig cfg;
  cfg.sequential = tc.sequential;
  cfg.buffer_capacity = tc.capacity;
  Pipeline<Elem> p(
      {
          {"scale", [](Elem& e) { e.value = e.value * 7 + 1; }, tc.replication,
           tc.preserve_order, tc.fuse},
          {"mod", [](Elem& e) { e.value %= 1013; }, 1, false, false},
      },
      cfg);
  constexpr int n = 150;
  std::vector<int> values(static_cast<std::size_t>(n), -1);
  auto stats = p.run(counting_source(n), [&](Elem&& e) {
    // Each id must arrive exactly once with the correct value.
    ASSERT_GE(e.id, 0);
    ASSERT_LT(e.id, n);
    EXPECT_EQ(values[static_cast<std::size_t>(e.id)], -1);
    values[static_cast<std::size_t>(e.id)] = e.value;
  });
  EXPECT_EQ(stats.elements, static_cast<std::uint64_t>(n));
  for (int i = 0; i < n; ++i)
    EXPECT_EQ(values[static_cast<std::size_t>(i)], (i * 7 + 1) % 1013) << i;
}

INSTANTIATE_TEST_SUITE_P(
    AllTunings, PipelineTuningSweep,
    ::testing::Values(
        TuningCase{1, false, false, false, 16}, TuningCase{1, false, false, true, 16},
        TuningCase{2, false, false, false, 16}, TuningCase{2, true, false, false, 16},
        TuningCase{4, true, false, false, 2},   TuningCase{4, false, false, false, 2},
        TuningCase{2, true, true, false, 16},   TuningCase{2, false, true, false, 4},
        TuningCase{8, true, false, false, 1},   TuningCase{3, true, true, true, 8}),
    [](const ::testing::TestParamInfo<TuningCase>& info) {
      const TuningCase& t = info.param;
      return "rep" + std::to_string(t.replication) +
             (t.preserve_order ? "_ord" : "_unord") + (t.fuse ? "_fused" : "") +
             (t.sequential ? "_seq" : "_par") + "_cap" +
             std::to_string(t.capacity);
    });

// Order-preservation property: for every replication level the output
// sequence equals the input sequence.
class OrderPreservationSweep : public ::testing::TestWithParam<int> {};

TEST_P(OrderPreservationSweep, SequencePreserved) {
  const int replication = GetParam();
  Pipeline<Elem> p({{"jitter",
                     [](Elem& e) {
                       volatile int spin = ((e.id * 31) % 11) * 500;
                       while (spin > 0) --spin;
                     },
                     replication, /*preserve_order=*/true, false}});
  std::vector<int> ids;
  p.run(counting_source(400), [&](Elem&& e) { ids.push_back(e.id); });
  ASSERT_EQ(ids.size(), 400u);
  for (int i = 0; i < 400; ++i) EXPECT_EQ(ids[static_cast<std::size_t>(i)], i);
}

INSTANTIATE_TEST_SUITE_P(Replications, OrderPreservationSweep,
                         ::testing::Values(1, 2, 3, 4, 8));

}  // namespace
}  // namespace patty::rt
