// Self-hosted front-end throughput: the full synthetic detection corpus is
// evaluated end-to-end (parse -> semantic model incl. dynamic analysis ->
// pattern detection -> scoring) by the sequential front-end and by the
// parallel front-end running on Patty's own runtime (one parallel_for of
// whole-program tasks, with parallel_for loop matching + master/worker
// region scan nested inside), on the shared work-stealing pool.
//
// Dynamic analysis runs in emulated-multicore mode (work(n) sleeps instead
// of burning CPU — DESIGN.md substitutions), so the speedup shape is
// reproducible on hosts with fewer cores than the paper's testbed; the
// real-CPU section measures what the host actually delivers (the JSON
// records cpu_cores so readers can interpret it). The shared pool
// (max(4, nproc) workers, plus the calling thread) bounds the parallel
// rows. A large-corpus real-CPU section (default 1000 generated programs)
// shows how the loop scales with corpus size. Every run's detection
// fingerprint must equal the sequential one — the bench exits 2 on any
// divergence, making each timing row also a determinism check.
//
// Results go to stdout as a table and to BENCH_analysis.json. Flags:
//   --short         reduced corpus, no large section (perf-smoke ctest entry)
//   --programs N    override the study corpus size (default 110, short 20)
//   --large N       large-corpus section size (default 1000, 0 disables)
//   --assert-smoke  exit nonzero unless the parallel front-end holds its
//                   bar: emulated speedup > 1.3x always; real-CPU > 1.0x
//                   when the host has 2+ cores, else overhead-bounded
//                   (> 0.70x of sequential). Best of 3.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <vector>

#include "corpus/corpus.hpp"
#include "runtime/thread_pool.hpp"
#include "transform/certify.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One section: the sequential front-end and the parallel one over the
/// same corpus.
struct ModeResult {
  double sequential_s = 0;
  double parallel_s = 0;
  double speedup = 1;  // sequential_s / parallel_s
  patty::corpus::DetectionScore total;
};

/// Evaluate the corpus once; returns wall seconds and checks the detection
/// fingerprint against `reference` (empty = this run becomes the
/// reference). Any divergence is a front-end bug: fail loudly.
double run_once(const std::vector<const patty::corpus::CorpusProgram*>& corpus,
                const patty::corpus::FrontendConfig& config,
                std::string* reference,
                patty::corpus::DetectionScore* total_out) {
  const auto t0 = Clock::now();
  const patty::corpus::CorpusReport report =
      patty::corpus::evaluate_corpus(corpus, config);
  const double secs = seconds_since(t0);
  const std::string fp = report.fingerprint();
  if (reference->empty()) {
    *reference = fp;
  } else if (fp != *reference) {
    std::fprintf(stderr,
                 "DETERMINISM VIOLATION: %s front-end diverged from the "
                 "sequential detection output\n",
                 config.parallel ? "parallel" : "sequential");
    std::exit(2);
  }
  if (total_out) *total_out = report.total;
  return secs;
}

ModeResult run_mode(const std::vector<const patty::corpus::CorpusProgram*>&
                        corpus,
                    bool work_sleeps, std::uint64_t work_sleep_ns,
                    std::string* reference) {
  ModeResult result;
  patty::corpus::FrontendConfig config;
  config.work_sleeps = work_sleeps;
  config.work_sleep_ns = work_sleep_ns;

  config.parallel = false;
  result.sequential_s = run_once(corpus, config, reference, &result.total);
  std::printf("  sequential : %7.3fs\n", result.sequential_s);

  config.parallel = true;
  result.parallel_s = run_once(corpus, config, reference, nullptr);
  result.speedup = result.sequential_s / result.parallel_s;
  std::printf("  parallel   : %7.3fs  (%.2fx)\n", result.parallel_s,
              result.speedup);
  return result;
}

void append_mode_json(std::string* json, const ModeResult& mode) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "    \"sequential_s\": %.4f, \"parallel_s\": %.4f, "
                "\"speedup\": %.3f\n",
                mode.sequential_s, mode.parallel_s, mode.speedup);
  *json += buf;
}

std::vector<const patty::corpus::CorpusProgram*> to_pointers(
    const std::vector<patty::corpus::CorpusProgram>& programs,
    std::size_t* loc_out) {
  std::vector<const patty::corpus::CorpusProgram*> corpus;
  corpus.reserve(programs.size());
  std::size_t loc = 0;
  for (const patty::corpus::CorpusProgram& p : programs) {
    corpus.push_back(&p);
    loc += p.loc();
  }
  if (loc_out) *loc_out = loc;
  return corpus;
}

/// Best parallel speedup across up to `attempts` re-measurements
/// (relative-timing assertions flake on loaded machines; a real regression
/// loses every attempt, noise loses at most one or two).
double best_of(const std::vector<const patty::corpus::CorpusProgram*>& corpus,
               bool work_sleeps, std::uint64_t work_sleep_ns, double first,
               double bar, int attempts) {
  double best = first;
  for (int attempt = 1; attempt < attempts && best <= bar; ++attempt) {
    std::string fp;  // fresh reference, still checks determinism per pair
    std::printf("smoke retry %d (%s):\n", attempt,
                work_sleeps ? "emulated" : "real");
    const ModeResult retry = run_mode(corpus, work_sleeps, work_sleep_ns, &fp);
    if (retry.speedup > best) best = retry.speedup;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  bool short_mode = false;
  bool assert_smoke = false;
  int programs_override = 0;
  int large_programs = -1;  // -1 = default (1000 full, 0 short)
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--short")) short_mode = true;
    if (!std::strcmp(argv[i], "--assert-smoke")) assert_smoke = true;
    if (!std::strcmp(argv[i], "--programs") && i + 1 < argc)
      programs_override = std::atoi(argv[++i]);
    if (!std::strcmp(argv[i], "--large") && i + 1 < argc)
      large_programs = std::atoi(argv[++i]);
  }
  if (large_programs < 0) large_programs = short_mode ? 0 : 1000;

  const int cpu_cores = patty::rt::hardware_threads();

  // The precision/recall study corpus (110 blocks, fixed seed); short mode
  // keeps the same generator but a slice of it.
  const int blocks =
      programs_override > 0 ? programs_override : (short_mode ? 20 : 110);
  const std::vector<patty::corpus::CorpusProgram> synthetic =
      patty::corpus::synthetic_suite(blocks, 20150207);
  std::size_t loc = 0;
  const std::vector<const patty::corpus::CorpusProgram*> corpus =
      to_pointers(synthetic, &loc);
  std::printf("corpus: %zu synthetic programs, %zu LoC%s; host: %d cores\n",
              corpus.size(), loc, short_mode ? " (short mode)" : "",
              cpu_cores);

  // Emulated multicore: work(n) sleeps 60us per cost unit, so the dynamic
  // analysis (the front-end's dominant stage) overlaps across workers the
  // way it would across real cores. 60us makes sleep time dominate each
  // program's few ms of real CPU (parse/detect/interpreter bookkeeping).
  const std::uint64_t sleep_ns = 60'000;

  std::string fingerprint;  // sequential emulated run seeds the reference
  std::printf("\n== emulated multicore (work sleeps %lluus/unit) ==\n",
              static_cast<unsigned long long>(sleep_ns / 1000));
  const ModeResult emulated =
      run_mode(corpus, /*work_sleeps=*/true, sleep_ns, &fingerprint);

  std::printf("\n== real CPU (work burns, host-bound) ==\n");
  const ModeResult real =
      run_mode(corpus, /*work_sleeps=*/false, 0, &fingerprint);

  // Large corpus: generated with the same config knobs at 1000 programs.
  // Real CPU only — emulated sleeps would mask the scaling limits this
  // section exists to show.
  ModeResult large;
  std::size_t large_loc = 0;
  if (large_programs > 0) {
    patty::corpus::SyntheticConfig large_config;
    large_config.programs = large_programs;
    const std::vector<patty::corpus::CorpusProgram> large_synthetic =
        patty::corpus::synthetic_suite(large_config);
    const std::vector<const patty::corpus::CorpusProgram*> large_corpus =
        to_pointers(large_synthetic, &large_loc);
    std::printf("\n== large corpus, real CPU (%zu programs, %zu LoC) ==\n",
                large_corpus.size(), large_loc);
    std::string large_fp;  // own reference: different corpus
    large = run_mode(large_corpus, /*work_sleeps=*/false, 0, &large_fp);
  }

  // MHP certification coverage over the study corpus: how much of the
  // transformed corpus the static pre-filter discharges, how the residue
  // was decided, and how many probes needed the explorer (the
  // indirect-scatter family is the detector's known false positive — those
  // programs are *expected* to land in residue-raced; the `ctest -L mhp`
  // gate asserts the exact split). Recorded so the gate's coverage is
  // tracked PR-over-PR.
  std::printf("\n== MHP certification ==\n");
  const auto cert_t0 = Clock::now();
  const patty::transform::CorpusCertification certification =
      patty::transform::certify_corpus(corpus);
  const double cert_secs = seconds_since(cert_t0);
  const patty::transform::CertificationTotals& ct = certification.totals;
  std::printf("  %zu programs in %.3fs: %zu certified-static, "
              "%zu certified-explored, %zu residue-raced, %zu errors\n",
              ct.programs + ct.errors, cert_secs, ct.certified_static,
              ct.certified_explored, ct.residue_raced, ct.errors);
  std::printf("  %zu conflict pairs: %zu ordered, %zu disjoint, "
              "%zu private/fresh, %zu residue -> %zu probes (%zu raced, "
              "%zu explored)\n",
              ct.pairs, ct.ordered, ct.disjoint, ct.private_or_fresh,
              ct.residue, ct.probes, ct.probes_raced, ct.probes_explored);

  // Same corpus size with the known-FP indirect family excluded: this is
  // the population the >= 90%-static acceptance gate measures.
  patty::corpus::SyntheticConfig clean_config;
  clean_config.programs = blocks;
  clean_config.indirect_kernels = false;
  const std::vector<patty::corpus::CorpusProgram> clean_synthetic =
      patty::corpus::synthetic_suite(clean_config);
  const std::vector<const patty::corpus::CorpusProgram*> clean_corpus =
      to_pointers(clean_synthetic, nullptr);
  const patty::transform::CorpusCertification clean_certification =
      patty::transform::certify_corpus(clean_corpus);
  const patty::transform::CertificationTotals& cc = clean_certification.totals;
  std::printf("  well-behaved corpus (indirect family excluded): "
              "%zu/%zu certified-static (gate: >= 90%%)\n",
              cc.certified_static, cc.programs);

  const patty::corpus::DetectionScore& s = emulated.total;
  std::printf("\ndetection: precision %.3f recall %.3f "
              "(tp=%d fp=%d fn=%d tn=%d), all runs byte-identical\n",
              s.precision(), s.recall(), s.true_positives, s.false_positives,
              s.false_negatives, s.true_negatives);

  std::string json = "{\n";
  json += std::string("  \"mode\": \"") + (short_mode ? "short" : "full") +
          "\",\n";
  json += "  \"programs\": " + std::to_string(corpus.size()) + ",\n";
  json += "  \"loc\": " + std::to_string(loc) + ",\n";
  json += "  \"cpu_cores\": " + std::to_string(cpu_cores) + ",\n";
  {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "  \"precision\": %.4f,\n  \"recall\": %.4f,\n",
                  s.precision(), s.recall());
    json += buf;
  }
  json += "  \"deterministic\": true,\n";
  {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "  \"certification\": {\n"
        "    \"programs\": %zu, \"certified_static\": %zu,\n"
        "    \"certified_explored\": %zu, \"residue_raced\": %zu,\n"
        "    \"errors\": %zu, \"seconds\": %.3f,\n"
        "    \"pairs\": %zu, \"ordered\": %zu, \"disjoint\": %zu,\n"
        "    \"private_or_fresh\": %zu, \"residue\": %zu,\n"
        "    \"probes\": %zu, \"probes_raced\": %zu, "
        "\"probes_explored\": %zu,\n"
        "    \"well_behaved\": {\"programs\": %zu, "
        "\"certified_static\": %zu,\n"
        "      \"certified_explored\": %zu, \"residue_raced\": %zu}\n"
        "  },\n",
        ct.programs, ct.certified_static, ct.certified_explored,
        ct.residue_raced, ct.errors, cert_secs, ct.pairs, ct.ordered,
        ct.disjoint, ct.private_or_fresh, ct.residue, ct.probes,
        ct.probes_raced, ct.probes_explored, cc.programs, cc.certified_static,
        cc.certified_explored, cc.residue_raced);
    json += buf;
  }
  json += "  \"emulated\": {\n    \"work_sleep_us\": " +
          std::to_string(sleep_ns / 1000) + ",\n";
  append_mode_json(&json, emulated);
  json += "  },\n  \"real\": {\n";
  append_mode_json(&json, real);
  json += "  }";
  if (large_programs > 0) {
    json += ",\n  \"large\": {\n    \"programs\": " +
            std::to_string(large_programs) +
            ",\n    \"loc\": " + std::to_string(large_loc) + ",\n";
    append_mode_json(&json, large);
    json += "  }";
  }
  json += "\n}\n";
  if (std::FILE* f = std::fopen("BENCH_analysis.json", "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote BENCH_analysis.json (emulated %.2fx, real %.2fx)\n",
                emulated.speedup, real.speedup);
  }

  if (assert_smoke) {
    // Emulated bar: parallelism must actually overlap the sleeping dynamic
    // analysis regardless of host cores.
    const double best_emulated = best_of(corpus, /*work_sleeps=*/true,
                                         sleep_ns, emulated.speedup, 1.3, 3);
    if (best_emulated <= 1.3) {
      std::fprintf(stderr,
                   "perf-smoke FAILED: parallel front-end did not reach "
                   "1.3x over sequential (emulated) in any of 3 runs "
                   "(best %.2fx)\n",
                   best_emulated);
      return 1;
    }
    // Real-CPU bar, core-count-aware: with 2+ cores the parallel front-end
    // must win outright; on a single core winning is physically impossible,
    // so the bar is bounded overhead — threading must not cost more than a
    // third of the sequential wall.
    const double real_bar = cpu_cores >= 2 ? 1.0 : 0.70;
    const double best_real = best_of(corpus, /*work_sleeps=*/false, 0,
                                     real.speedup, real_bar, 3);
    if (best_real <= real_bar) {
      std::fprintf(stderr,
                   "perf-smoke FAILED: real-CPU parallel front-end below "
                   "the %s bar of %.2fx in all of 3 runs (best %.2fx, "
                   "%d cores)\n",
                   cpu_cores >= 2 ? "speedup" : "overhead", real_bar,
                   best_real, cpu_cores);
      return 1;
    }
    std::printf("perf-smoke OK: emulated best %.2fx (> 1.3x), real best "
                "%.2fx (bar %.2fx on %d cores)\n",
                best_emulated, best_real, real_bar, cpu_cores);
  }
  return 0;
}
