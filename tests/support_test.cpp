// Tests for the support library: diagnostics, RNG determinism and
// distribution sanity, descriptive statistics, and table rendering.

#include <gtest/gtest.h>

#include "support/diagnostics.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace patty {
namespace {

// --- Diagnostics -------------------------------------------------------------

TEST(DiagnosticsTest, CountsAndRendering) {
  DiagnosticSink sink;
  EXPECT_FALSE(sink.has_errors());
  sink.error({{3, 5}, {3, 9}}, "bad thing");
  sink.warning({{4, 1}, {4, 2}}, "odd thing");
  sink.note({}, "context");
  EXPECT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.error_count(), 1u);
  EXPECT_EQ(sink.all().size(), 3u);
  const std::string text = sink.to_string();
  EXPECT_NE(text.find("error 3:5-3:9: bad thing"), std::string::npos);
  EXPECT_NE(text.find("warning"), std::string::npos);
  EXPECT_NE(text.find("<unknown>"), std::string::npos);
  sink.clear();
  EXPECT_FALSE(sink.has_errors());
  EXPECT_TRUE(sink.all().empty());
}

TEST(DiagnosticsTest, FatalThrows) {
  EXPECT_THROW(fatal("boom"), std::logic_error);
}

TEST(SourceRangeTest, Validity) {
  SourceRange none;
  EXPECT_FALSE(none.valid());
  SourceRange some{{1, 1}, {1, 5}};
  EXPECT_TRUE(some.valid());
  EXPECT_EQ(some.str(), "1:1-1:5");
}

// --- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicBySeed) {
  Rng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  bool differs = false;
  Rng a2(42);
  for (int i = 0; i < 10; ++i)
    if (a2.next_u64() != c.next_u64()) differs = true;
  EXPECT_TRUE(differs);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(13), 13u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, IntInInclusiveBounds) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.int_in(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalRoughMoments) {
  Rng rng(13);
  std::vector<double> xs;
  for (int i = 0; i < 5000; ++i) xs.push_back(rng.normal(10.0, 2.0));
  EXPECT_NEAR(mean(xs), 10.0, 0.15);
  EXPECT_NEAR(sample_stddev(xs), 2.0, 0.15);
}

TEST(RngTest, SplitStreamsAreIndependent) {
  Rng parent(1);
  Rng child1 = parent.split();
  Rng child2 = parent.split();
  int equal = 0;
  for (int i = 0; i < 50; ++i)
    if (child1.next_u64() == child2.next_u64()) ++equal;
  EXPECT_EQ(equal, 0);
}

// --- Stats -------------------------------------------------------------------

TEST(StatsTest, MeanAndStddev) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(mean({2.0, 4.0, 6.0}), 4.0);
  EXPECT_DOUBLE_EQ(sample_stddev({2.0, 4.0, 6.0}), 2.0);
  EXPECT_EQ(sample_stddev({5.0}), 0.0);
}

TEST(StatsTest, Quantiles) {
  std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_THROW(quantile({}, 0.5), std::logic_error);
}

TEST(StatsTest, MinMax) {
  EXPECT_DOUBLE_EQ(min_of({3.0, 1.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(max_of({3.0, 1.0, 2.0}), 3.0);
}

// --- Table -------------------------------------------------------------------

TEST(TableTest, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.str();
  EXPECT_NE(s.find("name    value"), std::string::npos);
  EXPECT_NE(s.find("longer  22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, CsvOutput) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(TableTest, RowArityChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only one"}), std::logic_error);
}

TEST(TableTest, FmtPrecision) {
  EXPECT_EQ(fmt(2.345), "2.35");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt(-0.25), "-0.25");
}

}  // namespace
}  // namespace patty
