#pragma once
// Benchmark corpus.
//
// Hand-written MiniOO programs:
//  * avistream       — the paper's running example (figures 2/3)
//  * raytracer       — the user-study benchmark: 13 classes, ~173 LoC,
//                      exactly 3 ground-truth parallelizable locations, of
//                      which only one dominates the profile (the paper's
//                      manual group found that one via the profiler), plus
//                      one deliberate data-race trap (the false positive
//                      the paper's manual group produced)
//  * desktop_search  — index-generator pipeline (paper ref [28])
//  * matrix          — dense data-parallel kernels
//  * histogram       — shared-bin accumulation: looks parallel, is not
//
// Plus a deterministic synthetic-program generator for the §5 study
// (26,580 LoC detection-quality corpus) with per-loop ground truth.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace patty::lang {
struct Program;
}
namespace patty::analysis {
class SemanticModel;
}
namespace patty::patterns {
struct DetectionResult;
}

namespace patty::corpus {

/// Ground truth for one source location (keyed by the loop's line).
struct TruthLocation {
  std::uint32_t line = 0;
  bool parallelizable = true;   // semantic ground truth
  std::string pattern;          // "pipeline", "parfor", "reduction", "masterworker"
  std::string description;
};

struct CorpusProgram {
  std::string name;
  std::string source;
  std::vector<TruthLocation> truth;  // only *labeled* locations
  /// Lines of code (non-empty, non-comment), computed from source.
  [[nodiscard]] std::size_t loc() const;
};

const CorpusProgram& avistream();
const CorpusProgram& raytracer();
const CorpusProgram& desktop_search();
const CorpusProgram& matrix();
const CorpusProgram& histogram();

/// All hand-written programs.
std::vector<const CorpusProgram*> handwritten();

/// Knobs for the seeded synthetic-program generator: corpus size, kernel
/// working-set size, noise (dead filler methods), and the pattern mix.
/// Same config + seed => byte-identical corpus, on any host.
struct SyntheticConfig {
  int programs = 110;          // generated program count
  std::uint64_t seed = 20150207;
  int min_elems = 24;          // kernel working-set size range (array length)
  int max_elems = 48;
  int min_filler = 18;         // dead helper methods per program (noise)
  int max_filler = 26;
  // Pattern mix: which labeled kernel families each program carries.
  bool map_kernels = true;        // clear parfor positives (TP)
  bool reduction_kernels = true;  // associative accumulations (TP)
  bool pipeline_kernels = true;   // ordered stream stages (TP)
  bool cold_kernels = true;       // positives in never-profiled code; the
                                  // induction-uniform ones are discharged
                                  // statically (TP), shifted-subscript ones
                                  // in odd blocks stay missed (FN)
  bool scatter_kernels = true;    // direct aliasing scatters, rejected by
                                  // the PLDS scatter guard (TN)
  bool chain_kernels = true;      // true recurrences (TN)
  bool shift_kernels = true;      // hot shifted-subscript maps: found by
                                  // optimism (TP), missed by the static
                                  // baseline (keeps the recall gap honest)
  bool indirect_kernels = true;   // scatter hidden behind a local copy of
                                  // the index load — escapes the syntactic
                                  // scatter guard (FP)
};

/// Deterministic synthetic suite for the precision/recall study. Programs
/// are generated from templates covering: clear positives, positives hidden
/// in never-executed code (optimism cannot help; static fallback misses
/// them), input-dependent aliasing (optimism produces false positives),
/// and true recurrences (correct rejections). `blocks` scales total size.
std::vector<CorpusProgram> synthetic_suite(int blocks, std::uint64_t seed);

/// Fully parameterized generator (synthetic_suite(blocks, seed) is the
/// default-mix shorthand; identical output for the same size and seed).
std::vector<CorpusProgram> synthetic_suite(const SyntheticConfig& config);

/// Detection-quality scoring: compares detected loop locations (by line)
/// against ground truth across a set of programs.
struct DetectionScore {
  int true_positives = 0;
  int false_positives = 0;
  int false_negatives = 0;
  int true_negatives = 0;

  [[nodiscard]] double precision() const;
  [[nodiscard]] double recall() const;
  [[nodiscard]] double f1() const;
};

/// Run the detector over one program and score it against its truth.
/// `optimistic` selects the paper's mode vs. the static baseline.
DetectionScore score_program(const CorpusProgram& program, bool optimistic,
                             std::string* error = nullptr);

/// Self-hosted front-end configuration for corpus-wide evaluation.
struct FrontendConfig {
  /// Run the corpus as one rt::parallel_for over program indices on the
  /// shared work-stealing pool: each iteration is a whole-program task
  /// (parse -> semantic model -> detect -> score, then the inspect and
  /// adopt hooks) writing its own report slot. This is the front-end's
  /// only level of parallelism: inside a task the phases run sequentially.
  /// False runs the identical per-program function inline on the calling
  /// thread, so the two modes produce byte-identical reports (the
  /// determinism suite asserts this).
  bool parallel = false;
  /// Detection mode (the paper's optimistic default vs static baseline).
  bool optimistic = true;
  /// Optional per-program tap, invoked at the end of the program's task
  /// with the full front-end artifacts (AST, semantic model, detection
  /// result) before they are torn down. Lets downstream passes — the MHP
  /// certifier in particular — run over every corpus program without
  /// re-parsing or re-analyzing. Under the parallel front-end the hook
  /// fires on pool workers (and the calling thread), concurrently for
  /// different programs and in no particular order: it must be
  /// thread-safe, and ProgramInspection::index says where the result
  /// belongs. Never called for programs whose front-end failed (see
  /// ProgramReport::error).
  std::function<void(const struct ProgramInspection&)> inspect;
  /// Like inspect, but receives OWNERSHIP of the artifacts instead of a
  /// borrowed view (fires after inspect for the same program, same
  /// threading contract: concurrently on pool workers). This is how the
  /// service layer's model cache keeps the frozen semantic model alive
  /// past the evaluation: the front-end built it once, the adopter files
  /// it under the source's content hash. A program whose front-end failed
  /// is never adopted.
  std::function<void(struct ProgramArtifacts&&)> adopt;
};

/// Front-end artifacts for one successfully analyzed corpus program,
/// handed to FrontendConfig::inspect. Pointers are valid only for the
/// duration of the call.
struct ProgramInspection {
  std::size_t index = 0;  // corpus position
  const CorpusProgram* program = nullptr;
  const lang::Program* parsed = nullptr;
  const analysis::SemanticModel* model = nullptr;
  const patterns::DetectionResult* detection = nullptr;
};

/// Owned front-end artifacts for one successfully analyzed program, handed
/// to FrontendConfig::adopt. `model` holds internal references into
/// `parsed`, so the trio must stay together for its lifetime. (Special
/// members are out of line: the pointees are forward-declared here.)
struct ProgramArtifacts {
  std::size_t index = 0;  // corpus position
  const CorpusProgram* program = nullptr;
  std::unique_ptr<lang::Program> parsed;
  std::unique_ptr<analysis::SemanticModel> model;
  std::unique_ptr<patterns::DetectionResult> detection;
  std::string fingerprint;  // patterns::detection_fingerprint(detection)

  ProgramArtifacts();
  ProgramArtifacts(ProgramArtifacts&&) noexcept;
  ProgramArtifacts& operator=(ProgramArtifacts&&) noexcept;
  ~ProgramArtifacts();
};

/// Per-program outcome of a corpus evaluation, in corpus order.
struct ProgramReport {
  std::string name;
  DetectionScore score;
  std::string error;        // nonempty when parse/analysis failed
  std::string fingerprint;  // patterns::detection_fingerprint of the result
};

struct CorpusReport {
  DetectionScore total;
  std::vector<ProgramReport> programs;  // corpus order, independent of mode
  /// Corpus-wide detection fingerprint (program name + per-program
  /// fingerprints, corpus order): equal strings prove two evaluations
  /// detected exactly the same candidates everywhere.
  [[nodiscard]] std::string fingerprint() const;
};

/// Evaluate a corpus through the detection front-end (see FrontendConfig
/// for the sequential/parallel contract).
CorpusReport evaluate_corpus(const std::vector<const CorpusProgram*>& programs,
                             const FrontendConfig& config = {});

}  // namespace patty::corpus
