// Array-factor math tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/antenna/array_factor.hpp"
#include "milback/core/contract.hpp"
#include "milback/util/units.hpp"

namespace milback::antenna {
namespace {

TEST(ArrayFactor, PeakAtZeroPhase) {
  EXPECT_DOUBLE_EQ(uniform_array_factor(0.0, 12), 1.0);
}

TEST(ArrayFactor, GratingPeaksAt2Pi) {
  EXPECT_NEAR(uniform_array_factor(2.0 * kPi, 12), 1.0, 1e-9);
}

TEST(ArrayFactor, NullsAtExpectedPhases) {
  // First null of an N-element array at psi = 2 pi / N.
  const std::size_t n = 12;
  EXPECT_NEAR(uniform_array_factor(2.0 * kPi / double(n), n), 0.0, 1e-9);
}

TEST(ArrayFactor, FirstSidelobeNearMinus13dB) {
  // Uniform array first sidelobe ~ -13.26 dB at psi ~ 3 pi / N.
  const std::size_t n = 64;  // large N approaches the sinc limit
  const double af = uniform_array_factor(3.0 * kPi / double(n), n);
  EXPECT_NEAR(20.0 * std::log10(af), -13.26, 0.3);
}

TEST(ArrayFactor, BoundedByOne) {
  for (double psi = -10.0; psi <= 10.0; psi += 0.01) {
    const double af = uniform_array_factor(psi, 12);
    EXPECT_GE(af, 0.0);
    EXPECT_LE(af, 1.0 + 1e-12);
  }
}

TEST(ArrayFactor, SingleElementIsIsotropic) {
  EXPECT_DOUBLE_EQ(uniform_array_factor(1.234, 1), 1.0);
  EXPECT_DOUBLE_EQ(uniform_array_factor(0.0, 0), 0.0);
}

TEST(ArrayFactor, DirectivityLog) {
  EXPECT_NEAR(array_directivity_db(10), 10.0, 1e-9);
  EXPECT_NEAR(array_directivity_db(12), 10.79, 0.01);
}

TEST(ElementPattern, BoresightZeroAndRolloff) {
  EXPECT_DOUBLE_EQ(element_pattern_db(0.0, 2.0), 0.0);
  EXPECT_NEAR(element_pattern_db(60.0, 2.0), 20.0 * std::log10(0.5), 0.01);
  EXPECT_DOUBLE_EQ(element_pattern_db(89.5, 2.0), -40.0);
  // Symmetric.
  EXPECT_DOUBLE_EQ(element_pattern_db(30.0, 2.0), element_pattern_db(-30.0, 2.0));
}

TEST(Beamwidth, KnownBroadsideValue) {
  // 0.886 lambda / (N d) radians: N=12, d = lambda/2 -> ~8.46 deg.
  EXPECT_NEAR(beamwidth_deg(12, 0.5, 0.0), 8.46, 0.1);
}

TEST(Beamwidth, ScanBroadening) {
  const double broadside = beamwidth_deg(12, 0.5, 0.0);
  const double scanned = beamwidth_deg(12, 0.5, 45.0);
  EXPECT_NEAR(scanned / broadside, 1.0 / std::cos(deg2rad(45.0)), 0.01);
}

TEST(Beamwidth, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(beamwidth_deg(0, 0.5, 0.0), 180.0);
  EXPECT_DOUBLE_EQ(beamwidth_deg(12, 0.0, 0.0), 180.0);
}

TEST(ArrayFactor, UniformRejectsNanPhase) {
  EXPECT_THROW((void)uniform_array_factor(std::nan(""), 12), ContractViolation);
}

TEST(ArrayFactor, ElementPatternRejectsNanAngle) {
  EXPECT_THROW((void)element_pattern_db(std::nan(""), 1.3), ContractViolation);
}

TEST(ArrayFactor, BeamwidthRejectsNanAngle) {
  EXPECT_THROW((void)beamwidth_deg(12, 0.5, std::nan("")), ContractViolation);
}

}  // namespace
}  // namespace milback::antenna
