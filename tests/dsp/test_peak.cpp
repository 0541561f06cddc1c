// Peak detection and interpolation tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/dsp/peak.hpp"

namespace milback::dsp {
namespace {

TEST(Peak, ArgmaxBasics) {
  EXPECT_EQ(argmax({1.0, 5.0, 3.0}), 1u);
  EXPECT_EQ(argmax({}), 0u);
}

TEST(Peak, ParabolicInterpolationRecoversSubBinPeak) {
  // Sample a parabola peaked at x = 10.3.
  std::vector<double> x(21);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = double(i) - 10.3;
    x[i] = 100.0 - d * d;
  }
  const auto p = max_peak(x);
  EXPECT_NEAR(p.index, 10.3, 1e-9);
  EXPECT_NEAR(p.value, 100.0, 1e-9);
}

TEST(Peak, InterpolationClampedToHalfBin) {
  // Degenerate data that would extrapolate beyond +-0.5.
  std::vector<double> x{0.0, 1.0, 0.999999, 0.0};
  const auto p = interpolate_peak(x, 1);
  EXPECT_GE(p.index, 0.5);
  EXPECT_LE(p.index, 1.5);
}

TEST(Peak, InterpolateOutOfRangeIndexRaisesContractViolation) {
  const std::vector<double> x{0.0, 1.0, 0.0};
  EXPECT_THROW(interpolate_peak(x, 3), ContractViolation);
  EXPECT_THROW(interpolate_peak(x, 100), ContractViolation);
  // Empty input stays defined: no index can be out of range.
  EXPECT_DOUBLE_EQ(interpolate_peak({}, 5).value, 0.0);
}

TEST(Peak, EdgePeaksNotInterpolated) {
  std::vector<double> x{5.0, 1.0, 0.0};
  const auto p = max_peak(x);
  EXPECT_DOUBLE_EQ(p.index, 0.0);
  EXPECT_DOUBLE_EQ(p.value, 5.0);
}

TEST(Peak, FindPeaksThreshold) {
  std::vector<double> x{0.0, 3.0, 0.0, 1.0, 0.0, 5.0, 0.0};
  const auto peaks = find_peaks(x, 2.0, 1);
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_NEAR(peaks[0].index, 5.0, 0.01);  // strongest first
  EXPECT_NEAR(peaks[1].index, 1.0, 0.01);
}

TEST(Peak, FindPeaksMinDistanceSuppression) {
  std::vector<double> x{0.0, 4.0, 3.9, 4.1, 0.0, 0.0, 0.0, 2.0, 0.0};
  const auto peaks = find_peaks(x, 1.0, 3);
  ASSERT_EQ(peaks.size(), 2u);
  // The cluster around index 1-3 keeps only its strongest member; the
  // separate peak at index 7 (distance 4 >= 3) survives.
  EXPECT_NEAR(peaks[0].index, 3.0, 0.6);
  EXPECT_NEAR(peaks[1].index, 7.0, 0.01);
  // Tighter suppression radius swallows the index-7 peak too.
  EXPECT_EQ(find_peaks(x, 1.0, 5).size(), 1u);
}

TEST(Peak, FindPeaksEmptyAndTiny) {
  EXPECT_TRUE(find_peaks({}, 0.0).empty());
  EXPECT_TRUE(find_peaks({1.0, 2.0}, 0.0).empty());
}

TEST(Peak, TwoStrongestOrderedByIndex) {
  std::vector<double> x(100, 0.0);
  x[70] = 10.0;  // stronger peak later in time
  x[20] = 6.0;
  const auto pair = two_strongest_peaks(x, 1.0, 5);
  ASSERT_TRUE(pair.has_value());
  EXPECT_LT(pair->first.index, pair->second.index);
  EXPECT_NEAR(pair->first.index, 20.0, 0.01);
  EXPECT_NEAR(pair->second.index, 70.0, 0.01);
}

TEST(Peak, TwoStrongestNulloptWhenOnlyOne) {
  std::vector<double> x(50, 0.0);
  x[25] = 5.0;
  EXPECT_FALSE(two_strongest_peaks(x, 1.0, 3).has_value());
}

TEST(Peak, TwoStrongestIgnoresSubThreshold) {
  std::vector<double> x(50, 0.0);
  x[10] = 5.0;
  x[40] = 0.5;  // below threshold
  EXPECT_FALSE(two_strongest_peaks(x, 1.0, 3).has_value());
}

TEST(Peak, GaussianHumpSubSamplePrecision) {
  // Two Gaussian humps like the node's triangular-chirp envelope.
  std::vector<double> x(200, 0.0);
  auto hump = [&](double center, double amp) {
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double d = (double(i) - center) / 6.0;
      x[i] += amp * std::exp(-d * d);
    }
  };
  hump(60.25, 1.0);
  hump(140.75, 0.9);
  const auto pair = two_strongest_peaks(x, 0.3, 10);
  ASSERT_TRUE(pair.has_value());
  EXPECT_NEAR(pair->first.index, 60.25, 0.1);
  EXPECT_NEAR(pair->second.index, 140.75, 0.1);
}

}  // namespace
}  // namespace milback::dsp
