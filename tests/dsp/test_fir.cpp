// Single-pole low-pass IIR tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/dsp/fir.hpp"

namespace milback::dsp {
namespace {

TEST(OnePole, StepResponseConverges) {
  OnePoleLowpass lpf(10.0);
  double y = 0.0;
  for (int i = 0; i < 200; ++i) y = lpf.step(1.0);
  EXPECT_NEAR(y, 1.0, 1e-6);
}

TEST(OnePole, TimeConstantAt63Percent) {
  OnePoleLowpass lpf(50.0);
  double y = 0.0;
  for (int i = 0; i < 50; ++i) y = lpf.step(1.0);
  EXPECT_NEAR(y, 1.0 - std::exp(-1.0), 0.02);
}

TEST(OnePole, PassThroughWhenTauZero) {
  OnePoleLowpass lpf(0.0);
  EXPECT_DOUBLE_EQ(lpf.step(7.0), 7.0);
  EXPECT_DOUBLE_EQ(lpf.step(-2.0), -2.0);
}

}  // namespace
}  // namespace milback::dsp
