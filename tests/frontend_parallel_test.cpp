// Self-hosted front-end regression suite (label `analysis`, also run in the
// sanitizer `stress` job):
//  * the parallel front-end — one parallel_for of whole-program tasks, each
//    running its phases in order — must report byte-identical detections
//    to the sequential front-end across the whole corpus (handwritten +
//    full synthetic study suite);
//  * a failing program fails only its own report, and a stopped ambient
//    token cancels the parallel front-end;
//  * the dependence memo returns stable references and computes once per
//    (loop, mode);
//  * a finished profile, traced by one thread, answers concurrent readers
//    (daemon workers share a cached model's profile) alike and TSan-clean.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "analysis/profiler.hpp"
#include "analysis/semantic_model.hpp"
#include "corpus/corpus.hpp"
#include "lang/sema.hpp"
#include "runtime/cancellation.hpp"

namespace patty {
namespace {

std::vector<const corpus::CorpusProgram*> whole_corpus(
    const std::vector<corpus::CorpusProgram>& synthetic) {
  std::vector<const corpus::CorpusProgram*> all = corpus::handwritten();
  for (const corpus::CorpusProgram& p : synthetic) all.push_back(&p);
  return all;
}

TEST(FrontendDeterminism, ParallelMatchesSequentialByteForByte) {
  // The full §5 study corpus plus every hand-written program, evaluated by
  // both front-ends. Equal fingerprints mean every
  // candidate field and every rejection matched everywhere (see
  // patterns::detection_fingerprint).
  const std::vector<corpus::CorpusProgram> synthetic =
      corpus::synthetic_suite(110, 20150207);
  const std::vector<const corpus::CorpusProgram*> all =
      whole_corpus(synthetic);

  corpus::FrontendConfig config;  // sequential
  const corpus::CorpusReport sequential = corpus::evaluate_corpus(all, config);
  const std::string reference = sequential.fingerprint();
  ASSERT_FALSE(reference.empty());
  EXPECT_NE(reference.find("avistream"), std::string::npos);

  config.parallel = true;
  const corpus::CorpusReport parallel = corpus::evaluate_corpus(all, config);
  EXPECT_EQ(parallel.fingerprint(), reference)
      << "parallel front-end diverged";
  EXPECT_EQ(parallel.total.true_positives, sequential.total.true_positives);
  EXPECT_EQ(parallel.total.false_positives, sequential.total.false_positives);
  EXPECT_EQ(parallel.total.false_negatives, sequential.total.false_negatives);
  EXPECT_EQ(parallel.total.true_negatives, sequential.total.true_negatives);
}

TEST(FrontendDeterminism, LargeCorpusMatchesSequential) {
  // Scale test: a 300-program generated corpus, many times more
  // whole-program tasks than the shared pool has workers, must reproduce
  // the sequential fingerprint byte for byte.
  corpus::SyntheticConfig generator;
  generator.programs = 300;
  const std::vector<corpus::CorpusProgram> synthetic =
      corpus::synthetic_suite(generator);
  std::vector<const corpus::CorpusProgram*> all;
  all.reserve(synthetic.size());
  for (const corpus::CorpusProgram& p : synthetic) all.push_back(&p);

  corpus::FrontendConfig config;  // sequential
  const std::string reference =
      corpus::evaluate_corpus(all, config).fingerprint();
  ASSERT_FALSE(reference.empty());

  config.parallel = true;
  EXPECT_EQ(corpus::evaluate_corpus(all, config).fingerprint(), reference);
}

TEST(FrontendErrors, FailingProgramOnlyFailsItsOwnReport) {
  // A program that faults in its dynamic-analysis run sits in the middle
  // of the corpus. Only its report carries the error; every other program
  // is analysed, reported in corpus order, and inspected exactly once.
  corpus::SyntheticConfig generator;
  generator.programs = 12;
  const std::vector<corpus::CorpusProgram> synthetic =
      corpus::synthetic_suite(generator);
  corpus::CorpusProgram div_zero;
  div_zero.name = "div_zero";
  div_zero.source =
      "class Main { int main() { int d = 0; return 1 / d; } }";
  std::vector<const corpus::CorpusProgram*> all;
  for (std::size_t i = 0; i < synthetic.size(); ++i) {
    if (i == synthetic.size() / 2) all.push_back(&div_zero);
    all.push_back(&synthetic[i]);
  }
  const std::size_t failing = synthetic.size() / 2;

  corpus::FrontendConfig config;  // sequential
  const corpus::CorpusReport sequential = corpus::evaluate_corpus(all, config);
  ASSERT_NE(sequential.programs[failing].error.find("division by zero"),
            std::string::npos)
      << sequential.programs[failing].error;

  config.parallel = true;
  std::vector<std::atomic<int>> inspected(all.size());
  config.inspect = [&inspected](const corpus::ProgramInspection& in) {
    inspected[in.index].fetch_add(1);
  };
  const corpus::CorpusReport parallel = corpus::evaluate_corpus(all, config);
  ASSERT_EQ(parallel.programs.size(), all.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    const corpus::ProgramReport& p = parallel.programs[i];
    EXPECT_EQ(p.name, all[i]->name) << "slot " << i;
    EXPECT_EQ(p.error, sequential.programs[i].error) << p.name;
    EXPECT_EQ(p.fingerprint, sequential.programs[i].fingerprint) << p.name;
    EXPECT_EQ(inspected[i].load(), i == failing ? 0 : 1) << p.name;
    if (i != failing) {
      EXPECT_TRUE(p.error.empty()) << p.name;
    }
  }
  EXPECT_EQ(parallel.fingerprint(), sequential.fingerprint());
}

TEST(FrontendCancellation, StoppedScopeCancelsParallelFrontend) {
  // An already-stopped ambient token (a service request past its
  // deadline) cancels the parallel front-end as a whole: OperationCancelled
  // at the join, not a report of per-program errors.
  corpus::SyntheticConfig generator;
  generator.programs = 6;
  const std::vector<corpus::CorpusProgram> synthetic =
      corpus::synthetic_suite(generator);
  std::vector<const corpus::CorpusProgram*> all;
  for (const corpus::CorpusProgram& p : synthetic) all.push_back(&p);

  rt::StopSource stop;
  stop.request_stop();
  const rt::StopScope scope(stop.token());
  corpus::FrontendConfig config;
  config.parallel = true;
  EXPECT_THROW(corpus::evaluate_corpus(all, config), rt::OperationCancelled);
}

TEST(DepCache, ReturnsStableMemoizedReferences) {
  DiagnosticSink diags;
  auto program = lang::parse_and_check(R"(class Main { void main() {
    int[] a = new int[16];
    for (int i = 0; i < 16; i++) { a[i] = work(1); }
    for (int i = 1; i < 16; i++) { a[i] = a[i - 1] + 1; }
  } })",
                                       diags);
  ASSERT_TRUE(program) << diags.to_string();
  auto model = analysis::SemanticModel::build(*program);
  ASSERT_EQ(model->loops().size(), 2u);

  for (const analysis::LoopInfo& li : model->loops()) {
    for (bool optimistic : {true, false}) {
      const std::vector<analysis::Dep>& first =
          model->loop_dependences(*li.loop, optimistic);
      const std::vector<analysis::Dep>& second =
          model->loop_dependences(*li.loop, optimistic);
      // Memoized: the exact same vector, not an equal copy.
      EXPECT_EQ(&first, &second);
    }
    // The two modes are distinct cache entries.
    EXPECT_NE(&model->loop_dependences(*li.loop, true),
              &model->loop_dependences(*li.loop, false));
  }
  // The recurrence loop must still be seen as carried in both modes.
  const analysis::LoopInfo& rec = model->loops()[1];
  EXPECT_FALSE(model->loop_dependences(*rec.loop, true).empty());
}

TEST(DepCache, ConcurrentQueriesAgree) {
  // Threads sharing one model (the daemon's request workers share cached
  // models) hammer the same loops; every thread must see the same memoized
  // vector.
  DiagnosticSink diags;
  auto program = lang::parse_and_check(R"(class Main { void main() {
    int[] a = new int[32];
    for (int i = 1; i < 32; i++) { a[i] = a[i - 1] + work(1); }
  } })",
                                       diags);
  ASSERT_TRUE(program) << diags.to_string();
  auto model = analysis::SemanticModel::build(*program);
  ASSERT_EQ(model->loops().size(), 1u);
  const lang::Stmt& loop = *model->loops()[0].loop;

  std::vector<const std::vector<analysis::Dep>*> seen(8, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t)
    threads.emplace_back([&model, &loop, &seen, t] {
      for (int round = 0; round < 100; ++round)
        seen[t] = &model->loop_dependences(loop, true);
    });
  for (std::thread& th : threads) th.join();
  for (const auto* deps : seen) EXPECT_EQ(deps, seen[0]);
  EXPECT_FALSE(seen[0]->empty());
}

/// Every answer the finished profile gives about `model`'s program, one
/// line per query: each statement's counts and share, the total cost, every
/// loop profile with its dependences, every branch and every call count.
std::string profile_answers(const analysis::SemanticModel& model) {
  const analysis::Profiler& profile = *model.profile();
  std::string out = "total " + std::to_string(profile.total_cost()) + "\n";
  char share[32];
  for (const auto& cls : model.program().classes) {
    for (const auto& m : cls->methods) {
      out += "calls " + m->name + " " +
             std::to_string(profile.call_count(m.get())) + "\n";
      lang::for_each_stmt(*m->body, [&](const lang::Stmt& st) {
        const analysis::Profiler::StmtProfile p = profile.stmt_profile(st.id);
        std::snprintf(share, sizeof share, "%.17g",
                      profile.runtime_share(st.id));
        out += "s" + std::to_string(st.id) + " " +
               std::to_string(p.exec_count) + " " +
               std::to_string(p.inclusive_cost) + " " + share + "\n";
      });
    }
  }
  for (const analysis::LoopInfo& li : model.loops()) {
    const analysis::Profiler::LoopProfile* lp =
        profile.loop_profile(li.loop->id);
    if (!lp) continue;
    out += "loop s" + std::to_string(li.loop->id) + " " +
           std::to_string(lp->entries) + " " +
           std::to_string(lp->total_iterations) + "\n";
    for (const analysis::Dep& d : lp->deps)
      out += "  " + d.str() + " slot " + std::to_string(d.local_slot) + "\n";
  }
  for (const auto& [id, branch] : profile.branches())
    out += "branch s" + std::to_string(id) + " line " +
           std::to_string(branch.if_stmt->range.begin.line) + " " +
           std::to_string(branch.taken) + "/" +
           std::to_string(branch.not_taken) + "\n";
  return out;
}

TEST(ProfilerConcurrency, FinishedProfileAnswersConcurrentReaders) {
  // One thread traces and finish() freezes the profile; from then on the
  // daemon's request workers read a cached model's profile with no lock.
  // Eight readers must see exactly what the building thread saw, and the
  // reads must be TSan-clean (this test is part of the sanitizer stress
  // job).
  DiagnosticSink diags;
  auto program = lang::parse_and_check(R"(class Main {
    int tick(int n) {
      int acc = 0;
      for (int i = 0; i < n; i++) {
        if (i % 3 == 0) { acc = acc + work(2); } else { acc = acc + 1; }
      }
      return acc;
    }
    void main() {
      int[] totals = new int[4];
      for (int k = 0; k < 4; k++) { totals[k] = tick(k + 5); }
      print(totals[3]);
    }
  })",
                                       diags);
  ASSERT_TRUE(program) << diags.to_string();
  const auto model = analysis::SemanticModel::build(*program);
  ASSERT_TRUE(model->profile());

  const std::string reference = profile_answers(*model);
  const lang::ClassDecl* main_class = program->find_class("Main");
  ASSERT_TRUE(main_class);
  EXPECT_EQ(model->profile()->call_count(main_class->find_method("tick")), 4u);
  ASSERT_EQ(model->loops().size(), 2u);
  for (const analysis::LoopInfo& li : model->loops())
    EXPECT_TRUE(model->profile()->loop_profile(li.loop->id)) << reference;
  EXPECT_EQ(model->profile()->branches().size(), 1u) << reference;
  EXPECT_NE(reference.find("carried"), std::string::npos) << reference;

  constexpr int kReaders = 8;
  constexpr int kRounds = 50;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReaders; ++t)
    threads.emplace_back([&model, &reference, &mismatches] {
      for (int round = 0; round < kRounds; ++round)
        if (profile_answers(*model) != reference) mismatches.fetch_add(1);
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace patty
