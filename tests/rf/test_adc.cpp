// ADC model tests.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "milback/core/contract.hpp"
#include "milback/rf/adc.hpp"

namespace milback::rf {
namespace {

TEST(Adc, RejectsBadConfig) {
  EXPECT_THROW(Adc(AdcConfig{.sample_rate_hz = 1e6, .bits = 0}), std::invalid_argument);
  EXPECT_THROW(Adc(AdcConfig{.sample_rate_hz = 1e6, .bits = 30}), std::invalid_argument);
  EXPECT_THROW(Adc(AdcConfig{.sample_rate_hz = 0.0, .bits = 12}), std::invalid_argument);
  EXPECT_THROW(Adc(AdcConfig{.sample_rate_hz = 1e6, .bits = 12, .full_scale_v = 0.0}),
               std::invalid_argument);
}

TEST(Adc, LsbAndQuantNoise) {
  Adc adc{AdcConfig{.sample_rate_hz = 1e6, .bits = 12, .full_scale_v = 4.096}};
  EXPECT_NEAR(adc.lsb(), 0.001, 1e-9);
}

TEST(Adc, QuantizeRoundsToCode) {
  Adc adc{AdcConfig{.sample_rate_hz = 1e6, .bits = 8, .full_scale_v = 2.56}};
  const double lsb = adc.lsb();  // 10 mV
  EXPECT_NEAR(adc.quantize(0.1234), std::round(0.1234 / lsb) * lsb, 1e-12);
  // Quantization error always within half an LSB.
  for (double v = 0.0; v < 2.56; v += 0.0173) {
    EXPECT_LE(std::abs(adc.quantize(v) - v), lsb / 2.0 + 1e-12);
  }
}

TEST(Adc, QuantizeNonFiniteRaisesContractViolation) {
  Adc adc{AdcConfig{.sample_rate_hz = 1e6, .bits = 12, .full_scale_v = 3.3}};
  EXPECT_THROW(adc.quantize(std::numeric_limits<double>::quiet_NaN()), ContractViolation);
  EXPECT_THROW(adc.quantize(std::numeric_limits<double>::infinity()), ContractViolation);
}

TEST(Adc, ClipsAtRangeUnipolar) {
  Adc adc{AdcConfig{.sample_rate_hz = 1e6, .bits = 12, .full_scale_v = 3.3}};
  EXPECT_DOUBLE_EQ(adc.quantize(-1.0), 0.0);
  EXPECT_NEAR(adc.quantize(10.0), 3.3, 1e-9);
}

TEST(Adc, BipolarRange) {
  Adc adc{AdcConfig{.sample_rate_hz = 1e6, .bits = 12, .full_scale_v = 2.0,
                    .bipolar = true}};
  EXPECT_NEAR(adc.quantize(-5.0), -1.0, 1e-9);
  EXPECT_NEAR(adc.quantize(5.0), 1.0, 1e-9);
  EXPECT_NEAR(adc.quantize(0.0), 0.0, adc.lsb());
}

TEST(Adc, SampleDecimatesToRate) {
  Adc adc{AdcConfig{.sample_rate_hz = 1e6, .bits = 12, .full_scale_v = 3.3}};
  std::vector<double> x(1600, 1.0);  // 100 us at 16 MS/s
  const auto y = adc.sample(x, 16e6);
  EXPECT_EQ(y.size(), 100u);
}

TEST(Adc, SampleRejectsUpsampling) {
  Adc adc{AdcConfig{.sample_rate_hz = 1e6, .bits = 12, .full_scale_v = 3.3}};
  EXPECT_THROW(adc.sample(std::vector<double>(10, 0.0), 1e3), std::invalid_argument);
}

TEST(Adc, SamplePreservesSlowWaveformShape) {
  Adc adc{AdcConfig{.sample_rate_hz = 1e6, .bits = 12, .full_scale_v = 3.3}};
  const double fs_in = 8e6;
  std::vector<double> x(8000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.65 + 1.0 * std::sin(2.0 * 3.14159265 * 10e3 * double(i) / fs_in);
  }
  const auto y = adc.sample(x, fs_in);
  // Peak of the 10 kHz sine should survive within a couple of LSBs.
  double mx = 0.0;
  for (const double v : y) mx = std::max(mx, v);
  EXPECT_NEAR(mx, 2.65, 0.01);
}

}  // namespace
}  // namespace milback::rf
