// Statistics helper tests.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "milback/util/stats.hpp"

namespace milback {
namespace {

TEST(Stats, MeanBasics) {
  std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
}

TEST(Stats, VarianceUnbiased) {
  std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  // Known dataset: population variance 4, sample variance 32/7.
  EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
}

TEST(Stats, VarianceDegenerate) {
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{5.0}), 0.0);
  EXPECT_DOUBLE_EQ(variance(std::vector<double>{}), 0.0);
}

TEST(Stats, MinMax) {
  std::vector<double> xs{3.0, -1.0, 7.0};
  EXPECT_DOUBLE_EQ(min_value(xs), -1.0);
  EXPECT_DOUBLE_EQ(max_value(xs), 7.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{10.0, 20.0, 30.0, 40.0, 50.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 30.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 25.0), 20.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 90.0), 46.0);
}

TEST(Stats, PercentileUnsortedInput) {
  std::vector<double> xs{50.0, 10.0, 40.0, 20.0, 30.0};
  EXPECT_DOUBLE_EQ(median(xs), 30.0);
}

TEST(Stats, PercentilesMatchesSingleCalls) {
  std::vector<double> xs{50.0, 10.0, 40.0, 20.0, 30.0};
  const auto ps = percentiles(xs, {0.0, 25.0, 50.0, 90.0, 100.0});
  ASSERT_EQ(ps.size(), 5u);
  EXPECT_DOUBLE_EQ(ps[0], percentile(xs, 0.0));
  EXPECT_DOUBLE_EQ(ps[1], percentile(xs, 25.0));
  EXPECT_DOUBLE_EQ(ps[2], percentile(xs, 50.0));
  EXPECT_DOUBLE_EQ(ps[3], percentile(xs, 90.0));
  EXPECT_DOUBLE_EQ(ps[4], percentile(xs, 100.0));
}

TEST(Stats, PercentilesHandlesUnorderedProbesAndEmptyInput) {
  std::vector<double> xs{10.0, 20.0, 30.0};
  // Probe order is preserved in the output, not sorted.
  const auto ps = percentiles(xs, {95.0, 5.0});
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_GT(ps[0], ps[1]);
  const auto empty = percentiles(std::vector<double>{}, {50.0, 95.0});
  ASSERT_EQ(empty.size(), 2u);
  EXPECT_DOUBLE_EQ(empty[0], 0.0);
  EXPECT_DOUBLE_EQ(empty[1], 0.0);
}

TEST(Stats, EmpiricalCdfMonotone) {
  std::vector<double> xs{3.0, 1.0, 2.0};
  const auto cdf = empirical_cdf(xs);
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_DOUBLE_EQ(cdf[2].value, 3.0);
  EXPECT_NEAR(cdf[0].probability, 1.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(cdf[2].probability, 1.0);
  for (std::size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_GE(cdf[i].value, cdf[i - 1].value);
    EXPECT_GT(cdf[i].probability, cdf[i - 1].probability);
  }
}

}  // namespace
}  // namespace milback
