// Accumulator: order-stable reduction and agreement with util/stats.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <vector>

#include "milback/core/contract.hpp"
#include "milback/sim/accumulator.hpp"

namespace milback::sim {
namespace {

TEST(Accumulator, EmptyIsAllZeros) {
  const Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.misses(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.median(), 0.0);
  EXPECT_EQ(acc.percentile(90), 0.0);
  EXPECT_EQ(acc.max(), 0.0);
  EXPECT_EQ(acc.fraction_below(1.0), 0.0);
  EXPECT_TRUE(acc.cdf().empty());
}

TEST(Accumulator, MatchesUtilStats) {
  const std::vector<double> xs{3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0};
  Accumulator acc;
  for (const double x : xs) acc.add(x);
  EXPECT_EQ(acc.count(), xs.size());
  EXPECT_DOUBLE_EQ(acc.mean(), milback::mean(xs));
  EXPECT_DOUBLE_EQ(acc.stddev(), milback::stddev(xs));
  EXPECT_DOUBLE_EQ(acc.median(), milback::median(xs));
  EXPECT_DOUBLE_EQ(acc.percentile(90), milback::percentile(xs, 90));
  EXPECT_DOUBLE_EQ(acc.min(), 1.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(Accumulator, FromOutcomesCountsMisses) {
  const std::vector<std::optional<double>> outcomes{
      1.0, std::nullopt, 3.0, std::nullopt, 5.0};
  const auto acc = Accumulator::from(outcomes);
  EXPECT_EQ(acc.count(), 3u);
  EXPECT_EQ(acc.misses(), 2u);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.0);
  // Samples keep trial order (reduction must be schedule-independent).
  EXPECT_EQ(acc.samples(), (std::vector<double>{1.0, 3.0, 5.0}));
}

TEST(Accumulator, FractionBelowIsEmpiricalCdf) {
  Accumulator acc;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.fraction_below(0.5), 0.0);
  EXPECT_DOUBLE_EQ(acc.fraction_below(2.0), 0.5);
  EXPECT_DOUBLE_EQ(acc.fraction_below(3.5), 0.75);
  EXPECT_DOUBLE_EQ(acc.fraction_below(10.0), 1.0);
}

TEST(Accumulator, CdfIsSortedAndEndsAtOne) {
  Accumulator acc;
  for (const double x : {5.0, 1.0, 3.0}) acc.add(x);
  const auto cdf = acc.cdf();
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf.front().value, 1.0);
  EXPECT_DOUBLE_EQ(cdf.back().value, 5.0);
  EXPECT_DOUBLE_EQ(cdf.back().probability, 1.0);
}

TEST(Accumulator, MergeConcatenatesInOrder) {
  Accumulator a;
  a.add(1.0);
  a.add_miss();
  Accumulator b;
  b.add(2.0);
  b.add(3.0);
  b.add_miss();
  a.merge(b);
  EXPECT_EQ(a.samples(), (std::vector<double>{1.0, 2.0, 3.0}));
  EXPECT_EQ(a.misses(), 2u);
}

TEST(Accumulator, FractionBelowRejectsNan) {
  Accumulator acc;
  acc.add(1.0);
  EXPECT_THROW((void)acc.fraction_below(std::nan("")), ContractViolation);
}

}  // namespace
}  // namespace milback::sim
