// Moving-average smoothing tests.
#include <gtest/gtest.h>

#include "milback/dsp/resample.hpp"

namespace milback::dsp {
namespace {

TEST(MovingAverage, SmoothsConstantExactly) {
  const auto y = moving_average(std::vector<double>(10, 2.5), 3);
  for (const double v : y) EXPECT_DOUBLE_EQ(v, 2.5);
}

TEST(MovingAverage, CentersWindow) {
  const auto y = moving_average({0.0, 0.0, 9.0, 0.0, 0.0}, 3);
  EXPECT_DOUBLE_EQ(y[2], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 3.0);
  EXPECT_DOUBLE_EQ(y[0], 0.0);
}

TEST(MovingAverage, ZeroWindowThrows) {
  EXPECT_THROW(moving_average({1.0}, 0), std::invalid_argument);
}

TEST(MovingAverage, PreservesMeanApproximately) {
  std::vector<double> x(100);
  for (std::size_t i = 0; i < x.size(); ++i) x[i] = double(i % 7);
  const auto y = moving_average(x, 5);
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    mx += x[i];
    my += y[i];
  }
  EXPECT_NEAR(my / mx, 1.0, 0.02);
}

}  // namespace
}  // namespace milback::dsp
