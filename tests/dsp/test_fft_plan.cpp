// FftPlan equivalence tests: the planned transform must be bit-identical to
// the textbook iterative radix-2 FFT it replaced (same butterfly order, same
// twiddle recurrence), and the process-wide plan cache must hand out one
// shared immutable plan per size.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "milback/dsp/fft_plan.hpp"
#include "milback/util/rng.hpp"

namespace milback::dsp {
namespace {

// Inline copy of the pre-plan iterative radix-2 transform (the deleted
// dsp::fft internals): per-stage trig + `w *= wlen` twiddle recurrence.
void reference_fft(std::vector<cplx>& a, int sign) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j |= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = double(sign) * 2.0 * std::numbers::pi / double(len);
    const cplx wlen(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      cplx w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const cplx u = a[i + k];
        const cplx v = a[i + k + len / 2] * w;
        a[i + k] = u + v;
        a[i + k + len / 2] = u - v;
        w *= wlen;
      }
    }
  }
  if (sign > 0) {
    for (auto& v : a) v /= double(n);
  }
}

std::vector<cplx> random_signal(std::size_t n, unsigned seed) {
  Rng rng(seed);
  std::vector<cplx> x(n);
  for (auto& v : x) v = {rng.gaussian(), rng.gaussian()};
  return x;
}

class FftPlanSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftPlanSizes, ForwardBitExactVsReference) {
  const std::size_t n = GetParam();
  auto planned = random_signal(n, unsigned(n));
  auto reference = planned;
  fft_plan(n).forward(planned.data());
  reference_fft(reference, -1);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(planned[i].real(), reference[i].real()) << "bin " << i;
    EXPECT_EQ(planned[i].imag(), reference[i].imag()) << "bin " << i;
  }
}

TEST_P(FftPlanSizes, InverseBitExactVsReference) {
  const std::size_t n = GetParam();
  auto planned = random_signal(n, unsigned(2 * n + 1));
  auto reference = planned;
  fft_plan(n).inverse(planned.data());
  reference_fft(reference, +1);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(planned[i].real(), reference[i].real()) << "bin " << i;
    EXPECT_EQ(planned[i].imag(), reference[i].imag()) << "bin " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftPlanSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024, 4096));

TEST(FftPlan, InverseRoundTrip) {
  const std::size_t n = 512;
  const auto x = random_signal(n, 7);
  auto y = x;
  const auto& plan = fft_plan(n);
  plan.forward(y.data());
  plan.inverse(y.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y[i].real(), x[i].real(), 1e-9);
    EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-9);
  }
}

TEST(FftPlan, CacheReturnsSharedInstance) {
  const FftPlan& a = fft_plan(1024);
  const FftPlan& b = fft_plan(1024);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.size(), 1024u);
  EXPECT_NE(&a, &fft_plan(512));
}

TEST(FftPlan, RejectsNonPow2) {
  EXPECT_THROW(FftPlan(0), std::invalid_argument);
  EXPECT_THROW(FftPlan(3), std::invalid_argument);
  EXPECT_THROW(FftPlan(96), std::invalid_argument);
}

TEST(FftPlan, CheckedOverloadRejectsSizeMismatch) {
  std::vector<cplx> x(8, cplx{1.0, 0.0});
  EXPECT_THROW(fft_plan(16).forward(x), std::invalid_argument);
  EXPECT_THROW(fft_plan(16).inverse(x), std::invalid_argument);
}

}  // namespace
}  // namespace milback::dsp
