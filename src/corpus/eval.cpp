#include <set>

#include "analysis/semantic_model.hpp"
#include "corpus/corpus.hpp"
#include "lang/sema.hpp"
#include "observe/explain.hpp"
#include "observe/trace.hpp"
#include "patterns/detector.hpp"
#include "runtime/cancellation.hpp"
#include "runtime/parallel_for.hpp"

namespace patty::corpus {

ProgramArtifacts::ProgramArtifacts() = default;
ProgramArtifacts::ProgramArtifacts(ProgramArtifacts&&) noexcept = default;
ProgramArtifacts& ProgramArtifacts::operator=(ProgramArtifacts&&) noexcept =
    default;
ProgramArtifacts::~ProgramArtifacts() = default;

namespace {

/// One program moving through the front-end. Stages mutate it in place;
/// a nonempty `error` short-circuits the remaining stages, so a program that
/// fails reports its error instead of failing the corpus.
struct ProgramTask {
  std::size_t index = 0;  // slot in the report
  const CorpusProgram* program = nullptr;
  std::unique_ptr<lang::Program> parsed;
  std::unique_ptr<analysis::SemanticModel> model;
  patterns::DetectionResult detection;
  std::string error;
};

void stage_parse(ProgramTask& item) {
  DiagnosticSink diags;
  item.parsed = lang::parse_and_check(item.program->source, diags);
  if (!item.parsed)
    item.error = item.program->name + ": " + diags.to_string();
}

/// Cooperative cancellation between front-end stages: a service request's
/// deadline flips the thread-ambient stop token (rt::StopScope installed by
/// the caller); the remaining stages for the item short-circuit with an
/// in-item error, the front-end's error convention. Granularity is the
/// stage boundary — a stage already running finishes on its own.
bool stop_requested(ProgramTask& item) {
  if (item.error.empty() && rt::stop_requested())
    item.error = item.program->name + ": cancelled (stop requested)";
  return !item.error.empty();
}

void stage_model(ProgramTask& item) {
  if (stop_requested(item)) return;
  try {
    item.model = analysis::SemanticModel::build(*item.parsed);
  } catch (const analysis::RuntimeError& e) {
    item.error = item.program->name + ": " + e.message;
  }
}

void stage_detect(ProgramTask& item, const FrontendConfig& config) {
  if (stop_requested(item)) return;
  patterns::DetectionOptions options;
  options.optimistic = config.optimistic;
  item.detection = patterns::detect_all(*item.model, options);
}

/// Score detected loop locations (by line) against the program's truth.
DetectionScore score_detection(const CorpusProgram& program,
                               const patterns::DetectionResult& result) {
  DetectionScore score;
  std::set<std::uint32_t> detected_lines;
  for (const patterns::Candidate& c : result.candidates) {
    if (c.anchor) detected_lines.insert(c.anchor->range.begin.line);
  }
  // Only labeled locations are scored; unlabeled candidates (helper loops
  // etc.) are out of scope for the ground truth.
  for (const TruthLocation& t : program.truth) {
    const bool detected = detected_lines.count(t.line) > 0;
    if (t.parallelizable) {
      detected ? ++score.true_positives : ++score.false_negatives;
    } else {
      detected ? ++score.false_positives : ++score.true_negatives;
    }
  }
  return score;
}

ProgramReport report_for(ProgramTask& item, const FrontendConfig& config) {
  ProgramReport report;
  report.name = item.program->name;
  report.error = item.error;
  if (item.error.empty()) {
    report.score = score_detection(*item.program, item.detection);
    report.fingerprint = patterns::detection_fingerprint(item.detection);
    if (config.inspect) {
      ProgramInspection inspection;
      inspection.index = item.index;
      inspection.program = item.program;
      inspection.parsed = item.parsed.get();
      inspection.model = item.model.get();
      inspection.detection = &item.detection;
      config.inspect(inspection);
    }
    if (config.adopt) {
      ProgramArtifacts artifacts;
      artifacts.index = item.index;
      artifacts.program = item.program;
      artifacts.parsed = std::move(item.parsed);
      artifacts.model = std::move(item.model);
      artifacts.detection =
          std::make_unique<patterns::DetectionResult>(std::move(item.detection));
      artifacts.fingerprint = report.fingerprint;
      config.adopt(std::move(artifacts));
    }
  }
  return report;
}

/// The whole front-end for one program: the unit of work of both modes.
ProgramReport evaluate_program(const CorpusProgram& program,
                               std::size_t index,
                               const FrontendConfig& config) {
  ProgramTask item;
  item.index = index;
  item.program = &program;
  stage_parse(item);
  stage_model(item);
  stage_detect(item, config);
  return report_for(item, config);
}

}  // namespace

DetectionScore score_program(const CorpusProgram& program, bool optimistic,
                             std::string* error) {
  ProgramTask item;
  item.program = &program;
  FrontendConfig config;  // sequential defaults
  config.optimistic = optimistic;
  stage_parse(item);
  stage_model(item);
  stage_detect(item, config);
  if (!item.error.empty()) {
    if (error) *error = item.error;
    return {};
  }
  return score_detection(program, item.detection);
}

std::string CorpusReport::fingerprint() const {
  std::string fp;
  for (const ProgramReport& p : programs) {
    fp += "== ";
    fp += p.name;
    fp += " ==\n";
    fp += p.error.empty() ? p.fingerprint : ("error: " + p.error + "\n");
  }
  return fp;
}

CorpusReport evaluate_corpus(
    const std::vector<const CorpusProgram*>& programs,
    const FrontendConfig& config) {
  CorpusReport report;
  report.programs.resize(programs.size());

  if (!config.parallel) {
    for (std::size_t i = 0; i < programs.size(); ++i)
      report.programs[i] = evaluate_program(*programs[i], i, config);
  } else {
    // Self-hosted front-end: programs are independent and each writes only
    // its own index-addressed slot, so the corpus is a data-parallel loop.
    // One whole-program task per index on the shared work-stealing pool,
    // so every phase (certification in the inspect tap included) runs
    // concurrently; within a program the phases run in order, on one
    // thread.
    rt::ParallelForTuning tuning;
    tuning.grain = 1;
    rt::parallel_for(
        0, static_cast<std::int64_t>(programs.size()),
        [&](std::int64_t i) {
          const auto slot = static_cast<std::size_t>(i);
          report.programs[slot] =
              evaluate_program(*programs[slot], slot, config);
        },
        tuning);
  }

  for (const ProgramReport& p : report.programs) {
    report.total.true_positives += p.score.true_positives;
    report.total.false_positives += p.score.false_positives;
    report.total.false_negatives += p.score.false_negatives;
    report.total.true_negatives += p.score.true_negatives;
  }
  // Memory-footprint telemetry: sample process-wide arena totals and the
  // intern table into the frontend.* gauges (observe::memory_summary).
  if (observe::enabled()) observe::publish_frontend_memory();
  return report;
}

}  // namespace patty::corpus
