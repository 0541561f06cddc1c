// MCU model tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/node/mcu.hpp"

namespace milback::node {
namespace {

TEST(Mcu, DefaultsMatchMsp430Class) {
  Mcu mcu;
  EXPECT_DOUBLE_EQ(mcu.adc().config().sample_rate_hz, 1e6);
  EXPECT_EQ(mcu.adc().config().bits, 12u);
  EXPECT_NEAR(mcu.config().power_w, 5.76e-3, 1e-9);
}

TEST(Mcu, SampleDecimates) {
  Mcu mcu;
  // 45 us of detector output at 16 MS/s -> 45 samples at 1 MS/s.
  std::vector<double> v(720, 1.0);
  const auto s = mcu.sample(v, 16e6);
  EXPECT_EQ(s.size(), 45u);
}

TEST(Mcu, SampleQuantizes) {
  Mcu mcu;
  std::vector<double> v(16, 1.23456789);
  const auto s = mcu.sample(v, 16e6);
  ASSERT_FALSE(s.empty());
  const double lsb = mcu.adc().lsb();
  EXPECT_NEAR(s[0], 1.23456789, lsb);
  // The output is an exact ADC code.
  EXPECT_NEAR(std::remainder(s[0], lsb), 0.0, 1e-12);
}

}  // namespace
}  // namespace milback::node
