// FFT correctness tests on the planned transform: known transforms, round
// trips, Parseval, tones.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/dsp/fft_plan.hpp"
#include "milback/util/rng.hpp"
#include "milback/util/units.hpp"

namespace milback::dsp {
namespace {

std::vector<cplx> forward(std::vector<cplx> x) {
  fft_plan(x.size()).forward(x);
  return x;
}

std::vector<cplx> inverse(std::vector<cplx> x) {
  fft_plan(x.size()).inverse(x);
  return x;
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Fft, NextPow2OutOfRangeRaisesContractViolation) {
  EXPECT_EQ(next_pow2(std::size_t{1} << 62), std::size_t{1} << 62);
  EXPECT_THROW(next_pow2((std::size_t{1} << 62) + 1), ContractViolation);
}

TEST(Fft, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(96));
}

TEST(Fft, RejectsNonPow2Inplace) {
  std::vector<cplx> x(3, cplx{1.0, 0.0});
  EXPECT_THROW(fft_plan(x.size()).forward(x), std::invalid_argument);
}

TEST(Fft, DcSignal) {
  std::vector<cplx> x(8, cplx{1.0, 0.0});
  auto spec = forward(x);
  EXPECT_NEAR(std::abs(spec[0]), 8.0, 1e-9);
  for (std::size_t k = 1; k < 8; ++k) EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-9);
}

TEST(Fft, SingleToneLandsInRightBin) {
  const std::size_t n = 64;
  std::vector<cplx> x(n);
  const std::size_t k0 = 5;
  for (std::size_t i = 0; i < n; ++i) {
    const double ph = 2.0 * kPi * double(k0) * double(i) / double(n);
    x[i] = {std::cos(ph), std::sin(ph)};
  }
  auto spec = forward(x);
  EXPECT_NEAR(std::abs(spec[k0]), double(n), 1e-8);
  for (std::size_t k = 0; k < n; ++k) {
    if (k != k0) {
      EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-8);
    }
  }
}

TEST(Fft, RealCosineSplitsIntoTwoBins) {
  const std::size_t n = 32;
  std::vector<cplx> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = {std::cos(2.0 * kPi * 3.0 * double(i) / n), 0.0};
  auto spec = forward(x);
  EXPECT_NEAR(std::abs(spec[3]), n / 2.0, 1e-8);
  EXPECT_NEAR(std::abs(spec[n - 3]), n / 2.0, 1e-8);
}

TEST(Fft, InverseRoundTrip) {
  Rng rng(1);
  std::vector<cplx> x(256);
  for (auto& v : x) v = {rng.gaussian(), rng.gaussian()};
  auto y = inverse(forward(x));
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-9);
  }
}

TEST(Fft, ParsevalHolds) {
  Rng rng(2);
  std::vector<cplx> x(128);
  double time_energy = 0.0;
  for (auto& v : x) {
    v = {rng.gaussian(), rng.gaussian()};
    time_energy += std::norm(v);
  }
  auto spec = forward(x);
  double freq_energy = 0.0;
  for (const auto& v : spec) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / double(x.size()), time_energy, 1e-6 * time_energy);
}

TEST(Fft, LinearityProperty) {
  Rng rng(3);
  std::vector<cplx> a(64), b(64), sum(64);
  for (std::size_t i = 0; i < 64; ++i) {
    a[i] = {rng.gaussian(), rng.gaussian()};
    b[i] = {rng.gaussian(), rng.gaussian()};
    sum[i] = a[i] + 2.0 * b[i];
  }
  auto fa = forward(a), fb = forward(b), fs = forward(sum);
  for (std::size_t k = 0; k < 64; ++k) {
    EXPECT_NEAR(std::abs(fs[k] - (fa[k] + 2.0 * fb[k])), 0.0, 1e-8);
  }
}

TEST(Fft, MagnitudeSpectrum) {
  std::vector<cplx> spec{{3.0, 4.0}, {0.0, -2.0}};
  auto m = magnitude_spectrum(spec);
  ASSERT_EQ(m.size(), 2u);
  EXPECT_DOUBLE_EQ(m[0], 5.0);
  EXPECT_DOUBLE_EQ(m[1], 2.0);
}

// Parameterized: round trip across many sizes.
class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, RoundTrip) {
  Rng rng(GetParam());
  std::vector<cplx> x(GetParam());
  for (auto& v : x) v = {rng.gaussian(), rng.gaussian()};
  auto y = inverse(forward(x));
  double max_err = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) max_err = std::max(max_err, std::abs(y[i] - x[i]));
  EXPECT_LT(max_err, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024, 4096));

}  // namespace
}  // namespace milback::dsp
