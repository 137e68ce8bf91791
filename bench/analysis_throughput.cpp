// Self-hosted front-end throughput: the full synthetic detection corpus is
// evaluated end-to-end (parse -> semantic model incl. dynamic analysis ->
// pattern detection -> scoring) by the sequential front-end and by the
// parallel front-end running on Patty's own runtime (one parallel_for of
// whole-program tasks on the shared work-stealing pool, each task running
// its program's phases in order).
//
// Everything runs on the host's real cores (the JSON records cpu_cores).
// The study section times kPairs alternated sequential/parallel pairs (the
// two sides take turns to go first) after one untimed warm-up pass, and
// reports the median speedup with its interquartile range: one pair swings
// with the shared host's load. A large-corpus section (default 1000
// generated programs) shows how the loop scales with corpus size. Every
// run's detection fingerprint must equal the warm-up's, which is
// sequential — the bench exits 2 on any divergence, making each timing row
// also a determinism check.
//
// Results go to stdout as a table and to BENCH_analysis.json. Flags:
//   --short         no large section (perf-smoke ctest entry)
//   --programs N    override the study corpus size (default 110)
//   --large N       large-corpus section size (default 1000, 0 disables)
//   --assert-smoke  exit nonzero unless the study section's median
//                   speedup beats kSmokeBar (on a host with one hardware
//                   thread: stays above 0.70x, bounded overhead).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <chrono>
#include <string>
#include <vector>

#include "corpus/corpus.hpp"
#include "runtime/thread_pool.hpp"
#include "support/stats.hpp"
#include "transform/certify.hpp"

namespace {

using Clock = std::chrono::steady_clock;

/// Alternated sequential/parallel pairs per section.
constexpr int kStudyPairs = 9;
constexpr int kLargePairs = 3;
/// --assert-smoke's bar on the study section's median speedup.
constexpr double kSmokeBar = 1.3;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One section: the sequential front-end and the parallel one over the
/// same corpus, in alternated pairs. Times are medians over the pairs.
struct ModeResult {
  int pairs = 0;
  double sequential_s = 0;
  double parallel_s = 0;
  double speedup = 1;  // median of the pairs' sequential_s / parallel_s
  double speedup_q25 = 1;
  double speedup_q75 = 1;
  patty::corpus::DetectionScore total;
};

/// Evaluate the corpus once; returns wall seconds and checks the detection
/// fingerprint against `reference` (empty = this run becomes the
/// reference). Any divergence is a front-end bug: fail loudly.
double run_once(const std::vector<const patty::corpus::CorpusProgram*>& corpus,
                bool parallel, std::string* reference,
                patty::corpus::DetectionScore* total_out) {
  patty::corpus::FrontendConfig config;
  config.parallel = parallel;
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
                 parallel ? "parallel" : "sequential");
    std::exit(2);
  }
  if (total_out) *total_out = report.total;
  return secs;
}

/// One untimed sequential warm-up pass (it seeds the fingerprint
/// reference), then `pairs` sequential/parallel pairs, the two sides
/// taking turns to go first.
ModeResult run_mode(const std::vector<const patty::corpus::CorpusProgram*>&
                        corpus,
                    int pairs) {
  ModeResult result;
  result.pairs = pairs;
  std::string reference;
  run_once(corpus, /*parallel=*/false, &reference, &result.total);
  std::vector<double> sequential, parallel, speedup;
  for (int pair = 0; pair < pairs; ++pair) {
    const bool sequential_first = pair % 2 == 0;
    double seq = 0, par = 0;
    if (sequential_first) seq = run_once(corpus, false, &reference, nullptr);
    par = run_once(corpus, true, &reference, nullptr);
    if (!sequential_first) seq = run_once(corpus, false, &reference, nullptr);
    sequential.push_back(seq);
    parallel.push_back(par);
    speedup.push_back(seq / par);
  }
  const patty::Quantiles q(speedup);
  result.sequential_s = patty::Quantiles(sequential).q(0.5);
  result.parallel_s = patty::Quantiles(parallel).q(0.5);
  result.speedup = q.q(0.5);
  result.speedup_q25 = q.q(0.25);
  result.speedup_q75 = q.q(0.75);
  std::printf("  sequential : %7.4fs  (median of %d)\n", result.sequential_s,
              pairs);
  std::printf("  parallel   : %7.4fs  (median of %d)\n", result.parallel_s,
              pairs);
  std::printf("  speedup    : %.2fx  (IQR %.2f-%.2fx)\n", result.speedup,
              result.speedup_q25, result.speedup_q75);
  return result;
}

void append_mode_json(std::string* json, const ModeResult& mode) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "    \"pairs\": %d, \"sequential_s\": %.4f, "
                "\"parallel_s\": %.4f,\n"
                "    \"speedup\": %.3f, \"speedup_q25\": %.3f, "
                "\"speedup_q75\": %.3f\n",
                mode.pairs, mode.sequential_s, mode.parallel_s, mode.speedup,
                mode.speedup_q25, mode.speedup_q75);
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

  // The precision/recall study corpus (110 blocks, fixed seed).
  const int blocks = programs_override > 0 ? programs_override : 110;
  const std::vector<patty::corpus::CorpusProgram> synthetic =
      patty::corpus::synthetic_suite(blocks, 20150207);
  std::size_t loc = 0;
  const std::vector<const patty::corpus::CorpusProgram*> corpus =
      to_pointers(synthetic, &loc);
  std::printf("corpus: %zu synthetic programs, %zu LoC%s; host: %d cores\n",
              corpus.size(), loc, short_mode ? " (short mode)" : "",
              cpu_cores);

  std::printf("\n== study corpus, %d alternated pairs ==\n", kStudyPairs);
  const ModeResult real = run_mode(corpus, kStudyPairs);

  // Large corpus: generated with the same config knobs at 1000 programs.
  ModeResult large;
  std::size_t large_loc = 0;
  if (large_programs > 0) {
    patty::corpus::SyntheticConfig large_config;
    large_config.programs = large_programs;
    const std::vector<patty::corpus::CorpusProgram> large_synthetic =
        patty::corpus::synthetic_suite(large_config);
    const std::vector<const patty::corpus::CorpusProgram*> large_corpus =
        to_pointers(large_synthetic, &large_loc);
    std::printf("\n== large corpus (%zu programs, %zu LoC), %d alternated "
                "pairs ==\n",
                large_corpus.size(), large_loc, kLargePairs);
    large = run_mode(large_corpus, kLargePairs);
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

  const patty::corpus::DetectionScore& s = real.total;
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
  json += "  \"real\": {\n";
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
    std::printf("wrote BENCH_analysis.json (median %.2fx)\n", real.speedup);
  }

  if (assert_smoke) {
    // With one hardware thread winning is physically impossible, so the
    // bar there is bounded overhead: threading must not cost more than a
    // third of the sequential wall.
    const double bar = cpu_cores >= 2 ? kSmokeBar : 0.70;
    if (real.speedup <= bar) {
      std::fprintf(stderr,
                   "perf-smoke FAILED: parallel front-end's median speedup "
                   "%.2fx over %d pairs is not above the bar of %.2fx (IQR "
                   "%.2f-%.2fx, %d cores)\n",
                   real.speedup, real.pairs, bar, real.speedup_q25,
                   real.speedup_q75, cpu_cores);
      return 1;
    }
    std::printf("perf-smoke OK: median %.2fx over %d pairs (bar %.2fx on %d "
                "cores)\n",
                real.speedup, real.pairs, bar, cpu_cores);
  }
  return 0;
}
