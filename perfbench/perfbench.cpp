// Patty end-to-end benchmark, built and run by perfbench/run.py:
//
//   patty_perfbench --workload corpus|serve_hit|serve_miss|execute --seed N
//                   --seconds S --trace 0|1 [--setup-only 0|1]
//                   [--socket PATH]
//
// Each workload generates its inputs from --seed with Patty's synthetic
// program generator, sets the system up and completes a first operation,
// computes the expected outputs on the sequential path (untimed), then runs
// operations back to back for --seconds and checks every operation's output
// against them.
//
//   corpus      One operation is a corpus run through certify_corpus: 32
//               generated programs from source to detection and MHP
//               certification on the parallel (self-hosted) front-end. A run
//               rotates over five such corpora (160 programs).
//   serve_hit   One operation is one detect request to an in-process
//   serve_miss  patty-serve daemon (default options: 2 workers, telemetry on)
//               over its Unix-domain socket, from send to answer, with the
//               traffic bench/service_soak measures: one closed-loop client,
//               detect requests only, cached and uncached kept apart. Hits
//               resubmit the 64 generated programs unchanged, round-robin,
//               after a warm lap, so every request is answered from the
//               model cache. Misses append a comment unique to the request,
//               which changes the content hash but not the program, so every
//               request is parsed and analysed anew.
//   execute     One operation runs one analysed program under the parallel
//               plan executor (detected loops on the runtime): 25 generated
//               programs with larger kernels (256-512 elements), without the
//               scatter families whose idx-driven writes would overwrite the
//               parallel loops' results, and with main edited to print every
//               element each kernel wrote, so that the compared output covers
//               all of them.
//
// End-to-end metrics (--trace 0): median and p90 operation latency and
// programs per second, each the median over slices of the run. Set-up time
// is measured by run.py: it launches this program with --setup-only 1
// several times, each a fresh process that prints "ready" as soon as the
// set-up's first operation has completed, and times launch to that line.
//
// Per-layer metrics (--trace 1) come from a run of the same loop with
// telemetry on, and what they should move:
//   lex_us .. certify_us   front-end phase self time per program, from spans
//       placed here around each phase's call in a sequential pass over the
//       workload's programs: corpus latency, serve_miss latency, execute
//       set-up.
//   spawn_us, park_us, queue_op_ns   runtime primitives (shared pool, stage
//       queue); pool_* and parfor_* counts per program from the observe
//       registry: execute and corpus latency.
//   cache_hit_pct, svc_queue_pct, svc_exec_pct   daemon counters; the svc_*
//       pair splits the client round trip into admission wait and execution
//       (the rest is transport): serve latency.
//
// The last line of stdout is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. Progress goes to stderr.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/semantic_model.hpp"
#include "corpus/corpus.hpp"
#include "lang/lexer.hpp"
#include "lang/parser.hpp"
#include "lang/sema.hpp"
#include "observe/metrics.hpp"
#include "observe/trace.hpp"
#include "patterns/detector.hpp"
#include "runtime/stage_queue.hpp"
#include "runtime/thread_pool.hpp"
#include "service/client.hpp"
#include "service/server.hpp"
#include "support/stats.hpp"
#include "transform/certify.hpp"
#include "transform/plan.hpp"

namespace {

using Clock = std::chrono::steady_clock;
using patty::corpus::CorpusProgram;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool setup_only = false;
  std::string socket = "perfbench.sock";
};

/// Ends a workload's set-up. With --setup-only, tells the launching process
/// that the first result is in and returns true: the workload then returns
/// without measuring.
bool setup_only_done(const Options& opt) {
  if (!opt.setup_only) return false;
  std::printf("ready\n");
  std::fflush(stdout);
  return true;
}

/// One measured operation.
struct Op {
  Clock::time_point end;
  double latency_ms = 0;
  std::size_t programs = 0;  // programs the operation processed
};

Op finished(Clock::time_point start, std::size_t programs) {
  const Clock::time_point end = Clock::now();
  return {end, std::chrono::duration<double, std::milli>(end - start).count(),
          programs};
}

/// What one workload run produced, before it is turned into metrics.
struct Run {
  Clock::time_point start;      // of the measured loop
  std::vector<Op> ops;          // every operation of the measured loop
  std::uint64_t failed = 0;     // operations that errored
  std::uint64_t wrong = 0;      // operations whose output mismatched
  /// Distinct programs of the workload, for the per-layer phase pass.
  std::vector<CorpusProgram> inputs;
};

std::vector<const CorpusProgram*> pointers(
    const std::vector<CorpusProgram>& programs) {
  std::vector<const CorpusProgram*> out;
  for (const CorpusProgram& p : programs) out.push_back(&p);
  return out;
}

/// Detection fingerprint and certification verdict of every program; equal
/// outcomes mean identical candidates and identical verdicts everywhere.
struct Outcome {
  std::vector<std::string> fingerprints;
  std::vector<std::string> verdicts;
  bool operator==(const Outcome&) const = default;
};

Outcome certify(const std::vector<const CorpusProgram*>& corpus,
                bool parallel) {
  Outcome out;
  out.fingerprints.resize(corpus.size());
  std::mutex mutex;
  patty::corpus::FrontendConfig config;
  config.parallel = parallel;
  config.adopt = [&](patty::corpus::ProgramArtifacts&& artifacts) {
    std::scoped_lock lock(mutex);
    out.fingerprints[artifacts.index] = std::move(artifacts.fingerprint);
  };
  const patty::transform::CorpusCertification result =
      patty::transform::certify_corpus(corpus, config);
  for (const patty::transform::ProgramCertificate& cert : result.programs)
    out.verdicts.push_back(
        cert.error.empty() ? patty::transform::verdict_name(cert.verdict)
                           : "error: " + cert.error);
  return out;
}

// --- corpus -----------------------------------------------------------------

Run run_corpus(const Options& opt) {
  // 160 programs per seed, certified as five corpora of 32 in turn: a run
  // covers all 160 while one operation stays short enough for a few hundred
  // samples per run. Each corpus has its own latency, so the latencies form
  // one cluster per corpus; with an odd number of corpora the median falls
  // inside the middle cluster, not on the gap between two, where one
  // operation more or less of either would move it.
  constexpr std::size_t kCorpora = 5;
  Run run;
  patty::corpus::SyntheticConfig config;
  config.programs = 160;
  config.seed = opt.seed;
  run.inputs = patty::corpus::synthetic_suite(config);
  std::vector<std::vector<const CorpusProgram*>> corpora(kCorpora);
  for (std::size_t p = 0; p < run.inputs.size(); ++p)
    corpora[p * kCorpora / run.inputs.size()].push_back(&run.inputs[p]);
  certify(corpora[0], /*parallel=*/true);
  if (setup_only_done(opt)) return run;

  std::vector<Outcome> reference;
  for (const std::vector<const CorpusProgram*>& corpus : corpora) {
    reference.push_back(certify(corpus, /*parallel=*/false));
    for (const std::string& v : reference.back().verdicts)
      if (v.rfind("error", 0) == 0) throw std::runtime_error("corpus: " + v);
  }

  patty::observe::Registry::global().reset();
  run.start = Clock::now();
  const auto stop = run.start + std::chrono::duration<double>(opt.seconds);
  for (std::size_t i = 0; Clock::now() < stop; ++i) {
    const std::size_t c = i % kCorpora;
    const auto t0 = Clock::now();
    const Outcome outcome = certify(corpora[c], /*parallel=*/true);
    run.ops.push_back(finished(t0, corpora[c].size()));
    if (!(outcome == reference[c])) ++run.wrong;
  }
  return run;
}

// --- serve_hit, serve_miss ----------------------------------------------------

Run run_serve(const Options& opt, bool hits) {
  Run run;
  patty::corpus::SyntheticConfig config;
  config.programs = 64;
  config.seed = opt.seed;
  run.inputs = patty::corpus::synthetic_suite(config);
  const std::size_t programs = run.inputs.size();

  // Request n is a detect of program n mod 64, round-robin; for misses with
  // a trailing comment unique to n.
  std::int64_t next = 0;
  const auto request = [&](std::int64_t n) {
    patty::service::Request req;
    req.id = n;
    req.kind = patty::service::RequestKind::Detect;
    req.source = run.inputs[static_cast<std::size_t>(n) % programs].source;
    if (!hits) req.source += "// request " + std::to_string(n) + "\n";
    return req;
  };

  patty::service::ServerOptions options;
  options.socket_path = opt.socket;
  patty::service::Server server(options);
  server.start();
  patty::service::Client client;
  std::string error;
  if (!client.connect(opt.socket, &error))
    throw std::runtime_error("serve: connect: " + error);
  {
    const auto resp = client.call(request(next++), &error);
    if (!resp || !resp->ok)
      throw std::runtime_error("serve: first request failed: " +
                               (resp ? resp->error_message : error));
  }
  if (setup_only_done(opt)) return run;

  const Outcome reference = certify(pointers(run.inputs), /*parallel=*/false);
  // Warm lap: every program's model is cached before the loop starts.
  while (hits && next < static_cast<std::int64_t>(programs)) {
    const auto resp = client.call(request(next++), &error);
    if (!resp || !resp->ok)
      throw std::runtime_error("serve: warm lap: " +
                               (resp ? resp->error_message : error));
  }

  patty::observe::Registry::global().reset();
  run.start = Clock::now();
  const auto stop = run.start + std::chrono::duration<double>(opt.seconds);
  while (Clock::now() < stop) {
    const std::int64_t n = next++;
    const patty::service::Request req = request(n);
    const auto t0 = Clock::now();
    const auto resp = client.call(req, &error);
    run.ops.push_back(finished(t0, 1));
    if (!resp || !resp->ok) {
      ++run.failed;
      continue;
    }
    if (resp->result.at("fingerprint").as_string() !=
        reference.fingerprints[static_cast<std::size_t>(n) % programs])
      ++run.wrong;
  }
  return run;
}

// --- execute ----------------------------------------------------------------

using patty::corpus::ProgramArtifacts;

/// Makes main print, right after each kernel call, every element that kernel
/// wrote, in order. The generated main prints one sum of a few results, so
/// without this a parallel loop or pipeline that wrote wrong elements, or
/// appended them out of order, would leave the output unchanged.
std::string print_kernel_results(std::string source) {
  static const std::pair<const char*, const char*> kDumps[] = {
      {"    MapKernel();\n", "    foreach (int v in dst) { print(v); }\n"},
      {"    int s = SumKernel();\n", "    print(s);\n"},
      {"    PipeKernel();\n", "    foreach (int v in out) { print(v); }\n"},
      {"    ShiftKernel();\n", "    foreach (int v in dst) { print(v); }\n"},
      {"    ChainKernel();\n", "    foreach (int v in chain) { print(v); }\n"}};
  for (const auto& [call, dump] : kDumps) {
    const std::size_t at = source.find(call);
    if (at == std::string::npos)
      throw std::runtime_error(std::string("execute: main lacks ") + call);
    source.insert(at + std::strlen(call), dump);
  }
  return source;
}

/// Analyses the programs on the parallel front-end, as the batch tool does.
/// (Analysed one by one on the calling thread, set-up time swung by up to a
/// half from run to run.)
std::vector<ProgramArtifacts> analyse(
    const std::vector<CorpusProgram>& programs) {
  std::vector<ProgramArtifacts> out(programs.size());
  std::mutex mutex;
  patty::corpus::FrontendConfig config;
  config.parallel = true;
  config.adopt = [&](ProgramArtifacts&& artifacts) {
    std::scoped_lock lock(mutex);
    const std::size_t index = artifacts.index;
    out[index] = std::move(artifacts);
  };
  const patty::corpus::CorpusReport report =
      patty::corpus::evaluate_corpus(pointers(programs), config);
  for (const patty::corpus::ProgramReport& p : report.programs)
    if (!p.error.empty())
      throw std::runtime_error("execute: " + p.name + ": " + p.error);
  return out;
}

std::string execute(const ProgramArtifacts& a) {
  patty::transform::ParallelPlanExecutor executor(*a.parsed,
                                                  a.detection->candidates);
  executor.run_main();
  return executor.output();
}

Run run_execute(const Options& opt) {
  Run run;
  patty::corpus::SyntheticConfig config;
  // Odd, for the same reason as the corpus count in run_corpus: one latency
  // cluster per program.
  config.programs = 25;
  config.seed = opt.seed;
  config.min_elems = 256;
  config.max_elems = 512;
  // Both scatter families write dst through idx after the parallel kernels
  // have run, so dst would no longer show what those kernels computed; the
  // indirect one is also accepted wrongly by the detector.
  config.scatter_kernels = false;
  config.indirect_kernels = false;
  run.inputs = patty::corpus::synthetic_suite(config);
  for (CorpusProgram& p : run.inputs)
    p.source = print_kernel_results(std::move(p.source));
  const std::vector<ProgramArtifacts> analysed = analyse(run.inputs);
  execute(analysed[0]);
  if (setup_only_done(opt)) return run;

  std::vector<std::string> reference;
  for (const ProgramArtifacts& a : analysed) {
    patty::analysis::Interpreter interp(*a.parsed);
    interp.run_main();
    reference.push_back(interp.output());
  }

  patty::observe::Registry::global().reset();
  run.start = Clock::now();
  const auto stop = run.start + std::chrono::duration<double>(opt.seconds);
  for (std::size_t i = 0; Clock::now() < stop; ++i) {
    const std::size_t p = i % analysed.size();
    const auto t0 = Clock::now();
    std::string output;
    try {
      output = execute(analysed[p]);
    } catch (...) {
      ++run.failed;
    }
    run.ops.push_back(finished(t0, 1));
    if (output != reference[p]) ++run.wrong;
  }
  return run;
}

// --- per-layer ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Front-end phase self times, per program, from spans around each phase's
/// call. `effects` is a static-only model build (call graph, effects,
/// statement index); `profile` is the full build minus that static part,
/// i.e. the profiled interpreter run; `interp` runs main() without the
/// profiler, so profile - interp is the profiler's own cost.
void phase_metrics(const std::vector<CorpusProgram>& programs,
                   std::vector<Metric>* out) {
  enum { kLex, kParse, kSema, kEffects, kProfile, kInterp, kCfg, kDeps,
         kDetect, kCertify, kPhases };
  static const char* const kNames[kPhases] = {
      "lex_us",    "parse_us", "sema_us", "effects_us", "profile_us",
      "interp_us", "cfg_us",   "deps_us", "detect_us",  "certify_us"};
  std::vector<std::vector<double>> samples(kPhases);
  for (const CorpusProgram& p : programs) {
    double us[kPhases] = {};
    auto t = Clock::now();
    const auto lap = [&t](double* slot) {
      const auto now = Clock::now();
      *slot = std::chrono::duration<double, std::micro>(now - t).count();
      t = now;
    };
    patty::DiagnosticSink diags;
    std::vector<patty::lang::Token> tokens =
        patty::lang::Lexer(p.source, diags).tokenize();
    lap(&us[kLex]);
    std::unique_ptr<patty::lang::Program> program =
        patty::lang::Parser(std::move(tokens), diags).parse_program();
    lap(&us[kParse]);
    if (!program || !patty::lang::Sema(diags).analyze(*program))
      throw std::runtime_error("phase pass: " + p.name + ": " +
                               diags.to_string());
    lap(&us[kSema]);
    patty::analysis::SemanticModelOptions static_only;
    static_only.run_dynamic = false;
    patty::analysis::SemanticModel::build(*program, static_only);
    lap(&us[kEffects]);
    const auto model = patty::analysis::SemanticModel::build(*program);
    lap(&us[kProfile]);
    us[kProfile] = std::max(0.0, us[kProfile] - us[kEffects]);
    patty::analysis::Interpreter(*program).run_main();
    lap(&us[kInterp]);
    for (const auto& cls : program->classes)
      for (const auto& m : cls->methods) model->cfg(*m);
    lap(&us[kCfg]);
    for (const patty::analysis::LoopInfo& loop : model->loops())
      model->loop_dependences(*loop.loop);
    lap(&us[kDeps]);
    const patty::patterns::DetectionResult detection =
        patty::patterns::detect_all(*model);
    lap(&us[kDetect]);
    patty::transform::certify_program(*program, detection.candidates);
    lap(&us[kCertify]);
    for (int i = 0; i < kPhases; ++i) samples[i].push_back(us[i]);
  }
  for (int i = 0; i < kPhases; ++i)
    out->push_back({kNames[i], patty::mean(samples[i]), "us"});
}

/// Runtime primitives on the shared pool and a pipeline stage queue:
/// amortized spawn+run+join of an empty task, wake-up latency of a parked
/// pool, and one cross-thread queue handoff.
void runtime_probe_metrics(std::vector<Metric>* out) {
  patty::rt::ThreadPool& pool = patty::rt::ThreadPool::shared();
  std::vector<double> spawn;
  for (int round = 0; round < 20; ++round) {
    constexpr int kTasks = 256;
    patty::rt::TaskGroup group;
    const auto t0 = Clock::now();
    group.add(kTasks);
    for (int i = 0; i < kTasks; ++i)
      pool.submit_fast([&group] { group.finish(); });
    group.wait();
    spawn.push_back(ms_since(t0) * 1e3 / kTasks);
  }
  out->push_back({"spawn_us", patty::quantile(spawn, 0.5), "us"});

  std::vector<double> park;
  for (int round = 0; round < 30; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));  // let it park
    std::atomic<std::int64_t> started{0};
    patty::rt::TaskGroup group;
    group.add();
    const auto t0 = Clock::now();
    pool.submit_fast([&] {
      started = Clock::now().time_since_epoch().count();
      group.finish();
    });
    group.wait();
    park.push_back(std::chrono::duration<double, std::micro>(
                       Clock::time_point(Clock::duration(started.load())) - t0)
                       .count());
  }
  out->push_back({"park_us", patty::quantile(park, 0.5), "us"});

  constexpr int kItems = 200'000;
  const auto queue = patty::rt::make_stage_queue<int>(64, 2, 2);
  const auto t0 = Clock::now();
  std::thread producer([&] {
    for (int i = 0; i < kItems; ++i) queue->push(i);
    queue->close();
  });
  std::int64_t sum = 0;
  while (const std::optional<int> v = queue->pop()) sum += *v;
  producer.join();
  const double handoff_ns = ms_since(t0) * 1e6 / kItems;
  if (sum != static_cast<std::int64_t>(kItems) * (kItems - 1) / 2)
    throw std::runtime_error("queue probe lost items");
  out->push_back({"queue_op_ns", handoff_ns, "ns"});
}

/// Registry counters of the measured loop (the workloads reset the registry
/// right before it), runtime counts normalized per program processed.
void registry_metrics(const Run& run, std::vector<Metric>* out) {
  const patty::observe::MetricsSnapshot snap =
      patty::observe::Registry::global().snapshot();
  const auto counter = [&snap](const char* name) {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  const auto sum = [&snap](const char* name) {
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? 0.0 : it->second.sum;
  };
  double programs = 0;
  double rtt_ms = 0;
  for (const Op& op : run.ops) {
    programs += static_cast<double>(op.programs);
    rtt_ms += op.latency_ms;
  }
  out->push_back(
      {"pool_steals", counter("threadpool.steals") / programs, "count/prog"});
  out->push_back(
      {"pool_parks", counter("threadpool.idle_waits") / programs, "count/prog"});
  out->push_back({"parfor_spawns", counter("parallel_for.spawns") / programs,
                  "count/prog"});
  out->push_back({"parfor_chunks", counter("parallel_for.chunks") / programs,
                  "count/prog"});

  const double hits = counter("service.cache.hits");
  const double lookups = hits + counter("service.cache.misses");
  out->push_back({"cache_hit_pct", lookups > 0 ? 100 * hits / lookups : 0, "%"});
  // Daemon-side split of the client-observed request latency: admission
  // queue wait and execution; the rest is transport and framing.
  const bool served = lookups > 0 && rtt_ms > 0;
  out->push_back({"svc_queue_pct",
                  served ? 100 * sum("service.queue_wait_ms") / rtt_ms : 0,
                  "%"});
  out->push_back({"svc_exec_pct",
                  served ? 100 * sum("service.latency_ms") / rtt_ms : 0,
                  "%"});
}

/// Every metric is taken per slice of the measured loop (consecutive slices
/// of equal operation count, in completion order) and the median over the
/// slices is reported: interference from other tenants of the host that hits
/// a few seconds of a run then moves a slice or two instead of the result.
/// Median latency and throughput use eleven slices; p90 uses at most eleven
/// and as many as leave each slice at least 200 operations, so that at least
/// twenty lie beyond each slice's p90.
void end_to_end_metrics(const Run& run, std::vector<Metric>* out) {
  constexpr std::size_t kSlices = 11;
  std::vector<Op> ops = run.ops;
  std::sort(ops.begin(), ops.end(),
            [](const Op& a, const Op& b) { return a.end < b.end; });
  // Per-slice values of fn(first op, one past the last op, slice start).
  const auto per_slice = [&](std::size_t slices, const auto& fn) {
    std::vector<double> values;
    Clock::time_point slice_start = run.start;
    for (std::size_t s = 0; s < slices; ++s) {
      const std::size_t begin = ops.size() * s / slices;
      const std::size_t end = ops.size() * (s + 1) / slices;
      if (begin == end) continue;
      values.push_back(fn(ops.begin() + begin, ops.begin() + end, slice_start));
      slice_start = ops[end - 1].end;
    }
    return patty::quantile(values, 0.5);
  };
  const auto latency_quantile = [](double q) {
    return [q](auto begin, auto end, Clock::time_point) {
      std::vector<double> latencies;
      for (auto op = begin; op != end; ++op)
        latencies.push_back(op->latency_ms);
      return patty::quantile(latencies, q);
    };
  };
  const auto rate = [](auto begin, auto end, Clock::time_point start) {
    double programs = 0;
    for (auto op = begin; op != end; ++op)
      programs += static_cast<double>(op->programs);
    return programs /
           std::chrono::duration<double>((end - 1)->end - start).count();
  };
  const std::size_t tail_slices =
      std::clamp<std::size_t>(ops.size() / 200, 1, kSlices);

  out->push_back({"latency_ms", per_slice(kSlices, latency_quantile(0.5)), "ms"});
  out->push_back({"p90_ms", per_slice(tail_slices, latency_quantile(0.9)), "ms"});
  out->push_back({"programs_per_s", per_slice(kSlices, rate), "1/s"});
  std::fprintf(stderr, "%zu operations, %zu per p90 slice\n", ops.size(),
               ops.size() / tail_slices);
}

// --- main ---------------------------------------------------------------------

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") opt.workload = value;
    else if (flag == "--seed") opt.seed = std::strtoull(value, nullptr, 10);
    else if (flag == "--seconds") opt.seconds = std::atof(value);
    else if (flag == "--trace") opt.trace = std::atoi(value) != 0;
    else if (flag == "--setup-only") opt.setup_only = std::atoi(value) != 0;
    else if (flag == "--socket") opt.socket = value;
    else throw std::runtime_error("unknown flag " + flag);
  }
  if (opt.seconds <= 0) throw std::runtime_error("--seconds must be > 0");
  return opt;
}

void print_result(const Run& run, const std::vector<Metric>& metrics) {
  std::string json = "{\"correct\": ";
  json += run.wrong == 0 && run.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.ops.size());
  json += ", \"failed\": " + std::to_string(run.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                  metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse_args(argc, argv);
    Run (*workload)(const Options&) = nullptr;
    if (opt.workload == "corpus") workload = run_corpus;
    else if (opt.workload == "serve_hit")
      workload = [](const Options& o) { return run_serve(o, /*hits=*/true); };
    else if (opt.workload == "serve_miss")
      workload = [](const Options& o) { return run_serve(o, /*hits=*/false); };
    else if (opt.workload == "execute") workload = run_execute;
    else throw std::runtime_error("unknown workload '" + opt.workload + "'");

    if (opt.trace) patty::observe::set_enabled(true);
    const Run run = workload(opt);
    if (opt.setup_only) return 0;
    if (run.ops.empty()) throw std::runtime_error("no operations ran");

    std::vector<Metric> metrics;
    if (opt.trace) {
      registry_metrics(run, &metrics);
      phase_metrics(run.inputs, &metrics);
      runtime_probe_metrics(&metrics);
    } else {
      end_to_end_metrics(run, &metrics);
    }
    std::fprintf(stderr,
                 "%s seed %llu: %zu operations in %.2fs (%llu failed, "
                 "%llu wrong)\n",
                 opt.workload.c_str(),
                 static_cast<unsigned long long>(opt.seed), run.ops.size(),
                 ms_since(run.start) / 1e3,
                 static_cast<unsigned long long>(run.failed),
                 static_cast<unsigned long long>(run.wrong));
    print_result(run, metrics);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "patty_perfbench: %s\n", e.what());
    return 1;
  }
}
