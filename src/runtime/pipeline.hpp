#pragma once
// Tunable stage-binding pipeline (paper §2.2).
//
// Threads are bound to stages; bounded queues connect neighbours. The four
// tuning parameters of the paper are all implemented:
//   StageReplication   run a stage R-fold on consecutive stream elements
//   OrderPreservation  restore stream order behind a replicated stage
//   StageFusion        run adjacent stages in one thread (drops one queue)
//   SequentialExecution run the whole pipeline inline (short streams)
// plus the buffer capacity of the connecting queues.
//
// The element type is a template parameter: the code generator instantiates
// Pipeline over interpreter environments, the C++ examples over structs.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "observe/explain.hpp"
#include "observe/metrics.hpp"
#include "observe/trace.hpp"
#include "runtime/cancellation.hpp"
#include "runtime/stage_queue.hpp"
#include "support/diagnostics.hpp"
#include "support/failpoint.hpp"

namespace patty::rt {

struct PipelineConfig {
  std::size_t buffer_capacity = 16;
  bool sequential = false;  // SequentialExecution tuning parameter
  /// BatchSize tuning parameter: elements moved per queue operation.
  /// Workers pop/push up to this many items per synchronization point, which
  /// amortizes queue overhead on fine-grained streams at the cost of some
  /// pipelining latency. 1 (the default) reproduces item-at-a-time behavior.
  std::size_t batch_size = 1;
  /// Name under which telemetry-enabled runs publish their per-stage
  /// observation (observe::recent_pipelines) and trace spans.
  std::string name = "pipeline";
};

template <typename T>
class Pipeline {
 public:
  struct Stage {
    std::string name;
    std::function<void(T&)> fn;
    int replication = 1;        // StageReplication
    bool preserve_order = false;  // OrderPreservation (replicated stages)
    bool fuse_with_next = false;  // StageFusion with the following stage
  };

  struct RunStats {
    std::uint64_t elements = 0;
    std::size_t threads_used = 0;
    std::size_t stages_after_fusion = 0;
    /// Per-stage telemetry of this run; null unless observe::enabled() was
    /// true when run() started. Also published to observe::recent_pipelines.
    std::shared_ptr<const observe::PipelineObservation> observation;
  };

  Pipeline(std::vector<Stage> stages, PipelineConfig config = {})
      : config_(config) {
    if (stages.empty()) fatal("pipeline needs at least one stage");
    // StageFusion: merge each stage marked fuse_with_next into its
    // successor. Composed stages run both bodies in one thread and share
    // one queue hop.
    for (std::size_t i = 0; i < stages.size(); ++i) {
      Stage merged = std::move(stages[i]);
      while (merged.fuse_with_next && i + 1 < stages.size()) {
        Stage& next = stages[i + 1];
        merged.name += "+" + next.name;
        merged.fn = [a = std::move(merged.fn), b = std::move(next.fn)](T& x) {
          a(x);
          b(x);
        };
        merged.replication = std::max(merged.replication, next.replication);
        merged.preserve_order = merged.preserve_order || next.preserve_order;
        merged.fuse_with_next = next.fuse_with_next;
        ++i;
      }
      merged.fuse_with_next = false;
      if (merged.replication < 1) merged.replication = 1;
      effective_.push_back(std::move(merged));
    }
  }

  /// Execute: `source` yields elements until nullopt (the StreamGenerator,
  /// the paper's implicit first stage); `sink` receives each element after
  /// the last stage, on the caller's thread.
  RunStats run(std::function<std::optional<T>()> source,
               std::function<void(T&&)> sink) {
    RunStats stats;
    stats.stages_after_fusion = effective_.size();
    // Telemetry is decided once per run: one relaxed atomic load. When off
    // (the default) the only per-item cost below is a null-pointer check.
    const bool telemetry = observe::enabled();
    const std::uint64_t run_start_us = telemetry ? observe::now_us() : 0;
    observe::Span run_span("pipeline.run", "pipeline");
    run_span.set_detail(config_.name);

    if (config_.sequential) {
      stats.threads_used = 0;
      const StopToken enclosing = current_stop_token();
      std::vector<std::unique_ptr<StageTelemetry>> telem;
      if (telemetry)
        for (std::size_t i = 0; i < effective_.size(); ++i)
          telem.push_back(std::make_unique<StageTelemetry>());
      while (std::optional<T> item = source()) {
        if (enclosing.stop_requested())
          throw OperationCancelled(config_.name);
        if (!telemetry) {
          for (const Stage& s : effective_) s.fn(*item);
        } else {
          for (std::size_t i = 0; i < effective_.size(); ++i) {
            const std::uint64_t t0 = observe::now_us();
            effective_[i].fn(*item);
            const std::uint64_t t1 = observe::now_us();
            telem[i]->items.fetch_add(1, std::memory_order_relaxed);
            telem[i]->busy_us.fetch_add(t1 - t0, std::memory_order_relaxed);
            observe::record_complete(effective_[i].name, "pipeline", t0,
                                     t1 - t0);
          }
        }
        sink(std::move(*item));
        ++stats.elements;
      }
      if (telemetry)
        publish_observation(&stats, /*sequential=*/true, run_start_us, telem,
                            nullptr);
      return stats;
    }

    const std::size_t n_stages = effective_.size();
    // One fault domain per run: the first thread (worker, generator, or
    // sink) to catch an exception claims ctl.slot and stops the run. Any
    // thread that leaves its loop on a stop — a fault or the enclosing
    // region (which carries any deadline) — poisons every queue so peers
    // blocked on a dead neighbour wake and unwind; run() rethrows the
    // captured exception after the joins.
    RunControl ctl{StopSource(current_stop_token()), {}};
    // queues[i] feeds stage i; queues[n_stages] feeds the sink. Ring per
    // edge from the stage topology: the generator and the sink are single
    // producer/consumer endpoints; a stage contributes its replication.
    std::vector<std::unique_ptr<StageQueue<Item>>> queues;
    queues.reserve(n_stages + 1);
    for (std::size_t i = 0; i <= n_stages; ++i) {
      const std::size_t producers =
          i == 0 ? 1
                 : static_cast<std::size_t>(effective_[i - 1].replication);
      const std::size_t consumers =
          i < n_stages ? static_cast<std::size_t>(effective_[i].replication)
                       : 1;
      queues.push_back(make_stage_queue<Item>(config_.buffer_capacity,
                                              producers, consumers));
    }

    std::vector<std::unique_ptr<StageState>> states;
    states.reserve(n_stages);
    for (std::size_t i = 0; i < n_stages; ++i) {
      auto st = std::make_unique<StageState>();
      st->active_workers.store(effective_[i].replication);
      states.push_back(std::move(st));
    }

    std::vector<std::unique_ptr<StageTelemetry>> telem;
    if (telemetry)
      for (std::size_t i = 0; i < n_stages; ++i)
        telem.push_back(std::make_unique<StageTelemetry>());

    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < n_stages; ++i) {
      const Stage& stage = effective_[i];
      const bool restore =
          stage.preserve_order && stage.replication > 1;
      StageTelemetry* tm = telemetry ? telem[i].get() : nullptr;
      for (int w = 0; w < stage.replication; ++w) {
        threads.emplace_back([this, i, restore, tm, &queues, &states, &ctl] {
          worker(effective_[i], *queues[i], *queues[i + 1], *states[i],
                 restore, tm, queues, ctl);
        });
      }
      stats.threads_used += static_cast<std::size_t>(stage.replication);
    }

    // The StreamGenerator needs its own thread: if the caller thread both
    // fed the first queue and drained the last one, a stream longer than
    // the total buffer capacity would fill every queue and deadlock.
    const std::size_t batch = std::max<std::size_t>(1, config_.batch_size);
    std::thread generator([&queues, &source, &ctl, batch] {
      std::uint64_t seq = 0;
      std::vector<Item> buf;
      buf.reserve(batch);
      try {
        while (!ctl.stopped()) {
          PATTY_FAILPOINT("pipeline.generator.emit");
          std::optional<T> item = source();
          if (!item) break;
          buf.push_back(Item{seq++, std::move(*item)});
          if (buf.size() >= batch && queues.front()->push_n(&buf) < batch)
            break;  // closed downstream
        }
        if (!buf.empty() && !ctl.stopped()) queues.front()->push_n(&buf);
      } catch (...) {
        ctl.fail();
      }
      ctl.poison_if_stopped(queues);
      queues.front()->close();
    });
    ++stats.threads_used;

    // Caller thread is the sink: drain the last queue (batched pops keep
    // FIFO order; elements arrive already order-restored when requested).
    {
      std::vector<Item> drained;
      drained.reserve(batch);
      while (!ctl.stopped() && queues.back()->pop_n(&drained, batch)) {
        try {
          for (Item& item : drained) {
            PATTY_FAILPOINT("pipeline.sink.item");
            sink(std::move(item.value));
            ++stats.elements;
          }
        } catch (...) {
          ctl.fail();
          break;
        }
      }
      ctl.poison_if_stopped(queues);
    }
    generator.join();
    for (std::thread& t : threads) t.join();
    if (telemetry)
      publish_observation(&stats, /*sequential=*/false, run_start_us, telem,
                          &queues);
    if (ctl.stopped()) {
      if (telemetry) {
        observe::Registry::global().counter("pipeline.faults").add();
        if (ctl.slot.set())
          observe::Registry::global().counter("fault.rethrown").add();
      }
      // Exactly one exception at the join: the first captured one, or
      // OperationCancelled when the run was stopped without a fault.
      ctl.slot.rethrow_if_set();
      throw OperationCancelled(config_.name);
    }
    return stats;
  }

  [[nodiscard]] std::size_t stage_count_after_fusion() const {
    return effective_.size();
  }

 private:
  struct Item {
    std::uint64_t seq = 0;
    T value;
  };

  /// Per-run fault domain: this run's StopSource, chained to the enclosing
  /// region (and the ambient token for nested regions inside stage bodies),
  /// and the single exception slot the first thrower claims.
  struct RunControl {
    StopSource stop;
    ExceptionSlot slot;
    [[nodiscard]] bool stopped() const { return stop.stop_requested(); }
    /// Call from a catch block: claim the slot if first, stop the run.
    void fail() {
      slot.capture_current();
      stop.request_stop();
    }
    /// Poison protocol, run by every thread as it leaves its loop: once the
    /// run has stopped, closing every queue wakes any producer or consumer
    /// parked on a full or empty edge; their next push returns false / pop
    /// drains-then-ends, so every thread reaches its join. close() is
    /// idempotent and safe to race from several threads.
    void poison_if_stopped(
        std::vector<std::unique_ptr<StageQueue<Item>>>& queues) const {
      if (!stopped()) return;
      for (auto& q : queues) q->close();
    }
  };

  /// Reorder buffer for OrderPreservation: releases items to the out queue
  /// strictly by sequence number.
  struct StageState {
    std::atomic<int> active_workers{0};
    std::mutex reorder_mutex;
    std::map<std::uint64_t, T> pending;
    std::uint64_t next_seq = 0;
  };

  /// Per-stage run telemetry, shared by all workers of the stage. Written
  /// with relaxed atomics; read once after the join barrier in run().
  struct StageTelemetry {
    std::atomic<std::uint64_t> items{0};
    std::atomic<std::uint64_t> busy_us{0};
    std::atomic<std::uint64_t> in_wait_us{0};   // blocked popping input
    std::atomic<std::uint64_t> out_wait_us{0};  // blocked pushing output
  };

  void worker(const Stage& stage, StageQueue<Item>& in, StageQueue<Item>& out,
              StageState& state, bool restore, StageTelemetry* tm,
              std::vector<std::unique_ptr<StageQueue<Item>>>& queues,
              RunControl& ctl) {
    // BatchSize: pop up to `batch` items per queue synchronization, run the
    // stage body over the whole batch, push the results in one batched call
    // (relative order inside a batch is preserved by push_n). Per-item
    // telemetry granularity is unchanged; wait time is counted per batch.
    const std::size_t batch = std::max<std::size_t>(1, config_.batch_size);
    // This run's token is the ambient one while the stage body runs, so a
    // nested region inside fn chains its stop source to this pipeline.
    StopScope ambient(ctl.stop.token());
    std::vector<Item> buf;
    buf.reserve(batch);
    std::uint64_t t_pop = tm ? observe::now_us() : 0;
    while (!ctl.stopped() && in.pop_n(&buf, batch)) {
      try {
        std::uint64_t t_work = 0;
        if (tm) {
          t_work = observe::now_us();
          tm->in_wait_us.fetch_add(t_work - t_pop, std::memory_order_relaxed);
        }
        PATTY_FAILPOINT("pipeline.worker.body");
        if (!tm) {
          for (Item& item : buf) stage.fn(item.value);
        } else {
          std::uint64_t t0 = t_work;
          for (Item& item : buf) {
            stage.fn(item.value);
            const std::uint64_t t1 = observe::now_us();
            tm->items.fetch_add(1, std::memory_order_relaxed);
            tm->busy_us.fetch_add(t1 - t0, std::memory_order_relaxed);
            observe::record_complete(stage.name, "pipeline", t0, t1 - t0);
            t0 = t1;
          }
        }
        std::uint64_t t_push = tm ? observe::now_us() : 0;
        PATTY_FAILPOINT("pipeline.worker.push");
        if (!restore) {
          out.push_n(&buf);
        } else {
          // Order restore: emit the longest ready run starting at next_seq.
          // The push happens under the reorder mutex: releasing it first
          // would let another worker emit a later run ahead of this one. A
          // full out queue serializes this stage briefly but cannot deadlock
          // (downstream drains independently of this mutex).
          std::scoped_lock lock(state.reorder_mutex);
          for (Item& item : buf) {
            state.pending.emplace(item.seq, std::move(item.value));
          }
          buf.clear();
          while (!state.pending.empty() &&
                 state.pending.begin()->first == state.next_seq) {
            auto first = state.pending.begin();
            Item ready{first->first, std::move(first->second)};
            state.pending.erase(first);
            ++state.next_seq;
            out.push(std::move(ready));
          }
        }
        if (tm) {
          t_pop = observe::now_us();
          tm->out_wait_us.fetch_add(t_pop - t_push,
                                    std::memory_order_relaxed);
        }
      } catch (...) {
        // First thrower wins the slot; the poison below wakes peers blocked
        // on our dead edges, then this worker unwinds to the join.
        ctl.fail();
        break;
      }
    }
    ctl.poison_if_stopped(queues);
    if (state.active_workers.fetch_sub(1) == 1) {
      // Last worker of this stage: downstream sees end-of-stream.
      out.close();
    }
  }

  /// Assemble the per-stage observation, publish it to the global ring and
  /// attach it to the run's stats. `queues` is null for sequential runs.
  void publish_observation(
      RunStats* stats, bool sequential, std::uint64_t run_start_us,
      const std::vector<std::unique_ptr<StageTelemetry>>& telem,
      const std::vector<std::unique_ptr<StageQueue<Item>>>* queues) {
    auto obs = std::make_shared<observe::PipelineObservation>();
    obs->pipeline = config_.name;
    obs->sequential = sequential;
    obs->wall_ms =
        static_cast<double>(observe::now_us() - run_start_us) / 1000.0;
    obs->elements = stats->elements;
    for (std::size_t i = 0; i < effective_.size(); ++i) {
      observe::StageObservation so;
      so.name = effective_[i].name;
      so.replication = sequential ? 1 : effective_[i].replication;
      if (i < telem.size()) {
        so.items = telem[i]->items.load(std::memory_order_relaxed);
        so.busy_ms = static_cast<double>(
                         telem[i]->busy_us.load(std::memory_order_relaxed)) /
                     1000.0;
        so.input_wait_ms =
            static_cast<double>(
                telem[i]->in_wait_us.load(std::memory_order_relaxed)) /
            1000.0;
        so.output_wait_ms =
            static_cast<double>(
                telem[i]->out_wait_us.load(std::memory_order_relaxed)) /
            1000.0;
      }
      if (queues) {
        const auto qs = (*queues)[i]->stats();
        so.input_queue_high_water = qs.high_water;
        so.input_queue_capacity = (*queues)[i]->capacity();
        so.input_queue_full_waits = qs.full_waits;
        so.input_queue_empty_waits = qs.empty_waits;
      }
      // Registry histograms keyed by stage index, one sample per run: the
      // per-item service time and the per-item queue wait of this stage.
      // Snapshot/delta windows (observe/snapshot.hpp) read these to fit
      // pipeline cost models without holding the observation object.
      if (so.items > 0) {
        const std::string key = "pipeline.stage" + std::to_string(i);
        const double items = static_cast<double>(so.items);
        observe::Registry::global()
            .histogram(key + ".service_us")
            .record(so.busy_ms * 1000.0 / items);
        observe::Registry::global()
            .histogram(key + ".wait_us")
            .record((so.input_wait_ms + so.output_wait_ms) * 1000.0 / items);
      }
      obs->stages.push_back(std::move(so));
    }
    observe::Registry::global().counter("pipeline.runs").add();
    observe::Registry::global().counter("pipeline.elements").add(
        stats->elements);
    observe::record_pipeline(*obs);
    stats->observation = std::move(obs);
  }

  PipelineConfig config_;
  std::vector<Stage> effective_;
};

}  // namespace patty::rt
