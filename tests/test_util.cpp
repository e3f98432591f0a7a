// Unit tests for src/util: RNG determinism, memory tracking, tables, stats.
#include <gtest/gtest.h>

#include <sstream>

#include "util/memtrack.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace lrsizer;

TEST(Rng, DeterministicAcrossInstances) {
  util::Rng a(123);
  util::Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  util::Rng a(1);
  util::Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64()) ? 1 : 0;
  EXPECT_LT(same, 3);
}

TEST(Rng, DoubleInUnitInterval) {
  util::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRespectsRange) {
  util::Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.5, 3.5);
    EXPECT_GE(v, 2.5);
    EXPECT_LT(v, 3.5);
  }
}

TEST(Rng, NextBelowCoversRangeWithoutBias) {
  util::Rng rng(11);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 20000; ++i) ++counts[rng.next_below(10)];
  for (int c : counts) {
    EXPECT_GT(c, 1600);
    EXPECT_LT(c, 2400);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  util::Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= (v == 3);
    saw_hi |= (v == 7);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(MemoryTracker, VectorBytesUsesCapacity) {
  std::vector<double> v;
  v.reserve(10);
  EXPECT_EQ(util::vector_bytes(v), 10 * sizeof(double));
}

TEST(TextTable, FormatsAlignedColumns) {
  util::TextTable t({"name", "value"});
  t.add_row({"alpha", "1.5"});
  t.add_row({"b", "22.25"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22.25"), std::string::npos);
}

TEST(TextTable, NumFormatting) {
  EXPECT_EQ(util::TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(util::TextTable::num(2.0, 0), "2");
  EXPECT_EQ(util::TextTable::integer(42), "42");
}

TEST(Stats, Mean) {
  EXPECT_DOUBLE_EQ(util::mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Stats, PerfectLinearFit) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  const std::vector<double> ys = {3, 5, 7, 9, 11};  // y = 2x + 1
  const auto fit = util::fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 2.0, 1e-12);
  EXPECT_NEAR(fit.intercept, 1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Stats, NoisyFitHasLowerR2) {
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6};
  const std::vector<double> ys = {1, 9, 2, 8, 3, 10};
  const auto fit = util::fit_line(xs, ys);
  EXPECT_LT(fit.r_squared, 0.9);
}

TEST(Timer, MeasuresElapsedTimeMonotonically) {
  util::WallTimer t;
  volatile double sink = 0.0;
  // `sink += ...` on a volatile operand is deprecated in C++20.
  for (int i = 0; i < 100000; ++i) sink = sink + static_cast<double>(i);
  const double first = t.seconds();
  const double second = t.seconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
  t.reset();
  EXPECT_LE(t.seconds(), second + 1.0);
}

}  // namespace
