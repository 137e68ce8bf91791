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
//  * a shared Profiler stays consistent (and TSan-clean) under concurrent
//    trace interpretation, and its statement queries may run alongside it.

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "analysis/interpreter.hpp"
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

TEST(ProfilerConcurrency, ConcurrentTraceInterpretationIsConsistent) {
  // The self-hosted front-end interprets independent inputs as concurrent
  // tasks against one shared Profiler. Counters must add up exactly and the
  // run must be TSan-clean (this test is part of the sanitizer stress job).
  DiagnosticSink diags;
  auto program = lang::parse_and_check(R"(class Main {
    int tick(int n) {
      int acc = 0;
      for (int i = 0; i < n; i++) { acc = acc + work(2); }
      return acc;
    }
    void main() { tick(1); }
  })",
                                       diags);
  ASSERT_TRUE(program) << diags.to_string();

  analysis::Profiler profiler(*program);
  analysis::Interpreter interp(*program, &profiler);
  const lang::ClassDecl* main_class = program->find_class("Main");
  ASSERT_TRUE(main_class);
  const lang::MethodDecl* tick = main_class->find_method("tick");
  ASSERT_TRUE(tick);
  const analysis::Value self = interp.instantiate(*main_class, {});

  constexpr int kThreads = 8;
  constexpr int kCalls = 50;
  constexpr int kIters = 20;
  std::atomic<std::int64_t> sum{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&interp, tick, &self, &sum] {
      for (int c = 0; c < kCalls; ++c) {
        const analysis::Value r = interp.call(
            *tick, self, {analysis::Value::of_int(kIters)});
        sum.fetch_add(r.as_int(), std::memory_order_relaxed);
      }
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(sum.load(), kThreads * kCalls * kIters * 2);

  // Loop body ran exactly threads * calls * iters times, atomically counted.
  const auto& body =
      tick->body->stmts[1]->as<lang::For>().body->as<lang::Block>().stmts;
  ASSERT_FALSE(body.empty());
  EXPECT_EQ(profiler.stmt_profile(body[0]->id).exec_count.load(),
            static_cast<std::uint64_t>(kThreads) * kCalls * kIters);
  const analysis::Profiler::LoopProfile* lp =
      profiler.loop_profile(tick->body->stmts[1]->id);
  ASSERT_TRUE(lp);
  EXPECT_EQ(lp->total_iterations,
            static_cast<std::uint64_t>(kThreads) * kCalls * kIters);
  EXPECT_GT(profiler.total_cost(), 0u);
}

TEST(ProfilerConcurrency, StatementQueriesDuringTracingAreConsistent) {
  // stmt_profile(), runtime_share(), total_cost() and call_count() may be
  // asked while other threads still trace. Each answer is a snapshot, so
  // per reader the counts never go back and a share never exceeds 1; once
  // tracing is joined the counts are exact.
  DiagnosticSink diags;
  auto program = lang::parse_and_check(R"(class Main {
    int tick(int n) {
      int acc = 0;
      for (int i = 0; i < n; i++) { acc = acc + work(2); }
      return acc;
    }
    void main() { tick(1); }
  })",
                                       diags);
  ASSERT_TRUE(program) << diags.to_string();

  analysis::Profiler profiler(*program);
  analysis::Interpreter interp(*program, &profiler);
  const lang::ClassDecl* main_class = program->find_class("Main");
  ASSERT_TRUE(main_class);
  const lang::MethodDecl* tick = main_class->find_method("tick");
  ASSERT_TRUE(tick);
  const analysis::Value self = interp.instantiate(*main_class, {});
  const int loop_id = tick->body->stmts[1]->id;
  const int body_id = tick->body->stmts[1]
                          ->as<lang::For>()
                          .body->as<lang::Block>()
                          .stmts[0]
                          ->id;

  constexpr int kTracers = 4;
  constexpr int kReaders = 2;
  constexpr int kCalls = 50;
  constexpr int kIters = 20;
  std::atomic<int> tracing{kTracers};
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kTracers; ++t)
    threads.emplace_back([&interp, tick, &self, &tracing] {
      for (int c = 0; c < kCalls; ++c)
        interp.call(*tick, self, {analysis::Value::of_int(kIters)});
      tracing.fetch_sub(1);
    });
  for (int r = 0; r < kReaders; ++r)
    threads.emplace_back([&profiler, tick, loop_id, body_id, &tracing,
                          &violations] {
      std::uint64_t execs = 0, cost = 0, calls = 0;
      while (tracing.load() > 0) {
        const std::uint64_t e = profiler.stmt_profile(body_id).exec_count;
        const std::uint64_t c = profiler.stmt_profile(loop_id).inclusive_cost;
        const std::uint64_t n = profiler.call_count(tick);
        const double share = profiler.runtime_share(loop_id);
        if (e < execs || c < cost || n < calls || share < 0.0 || share > 1.0)
          violations.fetch_add(1);
        execs = e;
        cost = c;
        calls = n;
      }
    });
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(profiler.stmt_profile(body_id).exec_count.load(),
            static_cast<std::uint64_t>(kTracers) * kCalls * kIters);
  EXPECT_EQ(profiler.call_count(tick),
            static_cast<std::uint64_t>(kTracers) * kCalls);
  EXPECT_LE(profiler.stmt_profile(loop_id).inclusive_cost.load(),
            profiler.total_cost());
}

}  // namespace
}  // namespace patty
