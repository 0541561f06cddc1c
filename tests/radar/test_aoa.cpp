// Angle-of-arrival estimator tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/radar/aoa.hpp"
#include "milback/util/units.hpp"

namespace milback::radar {
namespace {

AoaConfig noiseless() {
  AoaConfig cfg;
  cfg.calibration_sigma_rad = 0.0;
  return cfg;
}

TEST(Aoa, ForwardInverseRoundTrip) {
  const auto cfg = noiseless();
  for (double offset : {-8.0, -3.0, 0.0, 2.5, 8.0}) {
    const double ph = offset_to_phase_rad(offset, cfg);
    const auto back = phase_to_offset_deg(ph, cfg);
    ASSERT_TRUE(back.has_value());
    EXPECT_NEAR(*back, offset, 1e-9);
  }
}

TEST(Aoa, ZeroOffsetZeroPhase) {
  EXPECT_DOUBLE_EQ(offset_to_phase_rad(0.0, noiseless()), 0.0);
}

TEST(Aoa, PhaseSlopeMatchesBaseline) {
  const auto cfg = noiseless();
  // d(phase)/d(theta) at boresight = 2 pi b / lambda per radian.
  const double ph1 = offset_to_phase_rad(1.0, cfg);
  const double expected = 2.0 * kPi * cfg.baseline_m / cfg.wavelength_m * deg2rad(1.0);
  EXPECT_NEAR(ph1, expected, expected * 0.001);
}

TEST(Aoa, UnambiguousWindowMatchesGeometry) {
  const auto cfg = noiseless();
  // +- asin(lambda / 2b): with b = 3.5 cm at 28 GHz ~ 8.8 degrees.
  EXPECT_NEAR(unambiguous_halfwidth_deg(cfg), 8.8, 0.2);
  // Tiny baseline -> whole hemisphere unambiguous.
  AoaConfig small = cfg;
  small.baseline_m = 0.004;
  EXPECT_DOUBLE_EQ(unambiguous_halfwidth_deg(small), 90.0);
}

TEST(Aoa, ImpossiblePhaseReturnsNullopt) {
  const auto cfg = noiseless();
  // Phase implying |sin| > 1.
  const double too_big = 2.0 * kPi * cfg.baseline_m / cfg.wavelength_m * 1.5;
  EXPECT_FALSE(phase_to_offset_deg(too_big, cfg).has_value());
}

TEST(Aoa, EstimateFromComplexPeaks) {
  const auto cfg = noiseless();
  const double truth = 4.0;
  const double dphi = offset_to_phase_rad(truth, cfg);
  const std::complex<double> rx0{1.0, 0.0};
  const std::complex<double> rx1 = std::polar(1.0, dphi);
  const auto est = estimate_offset_deg(rx0, rx1, cfg);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(*est, truth, 1e-9);
}

TEST(Aoa, EstimateInsensitiveToCommonPhase) {
  const auto cfg = noiseless();
  const double dphi = offset_to_phase_rad(-3.0, cfg);
  const std::complex<double> common = std::polar(0.7, 1.234);
  const auto est = estimate_offset_deg(common, common * std::polar(1.0, dphi), cfg);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(*est, -3.0, 1e-9);
}

TEST(Aoa, VanishingPeaksRejected) {
  EXPECT_FALSE(estimate_offset_deg({0.0, 0.0}, {1.0, 0.0}, noiseless()).has_value());
  EXPECT_FALSE(estimate_offset_deg({1.0, 0.0}, {0.0, 0.0}, noiseless()).has_value());
}

// The AoA helpers run inside the localizer's pass; a bad input must raise a
// catchable ContractViolation, not terminate the process.
TEST(Aoa, PhaseToOffsetRejectsNanPhase) {
  EXPECT_THROW((void)phase_to_offset_deg(std::nan(""), noiseless()),
               ContractViolation);
}

TEST(Aoa, EstimateRejectsZeroBaseline) {
  auto cfg = noiseless();
  cfg.baseline_m = 0.0;
  EXPECT_THROW((void)estimate_offset_deg({1.0, 0.0}, {0.0, 1.0}, cfg),
               ContractViolation);
}

TEST(Aoa, HalfwidthRejectsZeroBaseline) {
  auto cfg = noiseless();
  cfg.baseline_m = 0.0;
  EXPECT_THROW((void)unambiguous_halfwidth_deg(cfg), ContractViolation);
}

}  // namespace
}  // namespace milback::radar
