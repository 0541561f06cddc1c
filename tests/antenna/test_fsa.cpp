// Dual-port FSA tests: scan law, mirror symmetry, gain family (Fig 10
// properties), carrier-pair selection and the normal-incidence degeneracy.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "milback/antenna/fsa.hpp"
#include "milback/core/contract.hpp"
#include "milback/util/units.hpp"

namespace milback::antenna {
namespace {

TEST(Fsa, RejectsDegenerateConfigs) {
  FsaConfig cfg;
  cfg.n_elements = 1;
  EXPECT_THROW(DualPortFsa{cfg}, std::invalid_argument);
  cfg = FsaConfig{};
  cfg.mode_number = 0;
  EXPECT_THROW(DualPortFsa{cfg}, std::invalid_argument);
  cfg = FsaConfig{};
  cfg.max_frequency_hz = cfg.min_frequency_hz;
  EXPECT_THROW(DualPortFsa{cfg}, std::invalid_argument);
}

TEST(Fsa, GeometryDerivedFromCenterFrequency) {
  DualPortFsa fsa;
  EXPECT_NEAR(fsa.element_spacing_m(), wavelength(28e9) / 2.0, 1e-9);
  EXPECT_NEAR(fsa.line_delay_s(), 5.0 / 28e9, 1e-18);
}

TEST(Fsa, BroadsideAtCenterFrequency) {
  DualPortFsa fsa;
  const auto a = fsa.beam_angle_deg(FsaPort::kA, 28e9);
  ASSERT_TRUE(a.has_value());
  EXPECT_NEAR(*a, 0.0, 1e-9);
}

TEST(Fsa, ScanCoversMoreThan60DegreesOver3GHz) {
  // The paper: "Our FSA design covers over 60 degrees azimuth with only
  // 3 GHz bandwidth."
  DualPortFsa fsa;
  const auto [lo, hi] = fsa.scan_range_deg();
  EXPECT_GT(hi - lo, 60.0);
  EXPECT_LT(hi - lo, 90.0);  // but not absurdly wide
}

TEST(Fsa, PortBMirrorsPortA) {
  DualPortFsa fsa;
  for (double f = 26.5e9; f <= 29.5e9; f += 0.25e9) {
    const auto a = fsa.beam_angle_deg(FsaPort::kA, f);
    const auto b = fsa.beam_angle_deg(FsaPort::kB, f);
    ASSERT_TRUE(a && b);
    EXPECT_NEAR(*a, -*b, 1e-9) << "f = " << f;
  }
}

TEST(Fsa, BeamAngleMonotoneInFrequency) {
  DualPortFsa fsa;
  double prev = -1e9;
  for (double f = 26.5e9; f <= 29.5e9; f += 0.1e9) {
    const auto a = fsa.beam_angle_deg(FsaPort::kA, f);
    ASSERT_TRUE(a.has_value());
    EXPECT_GT(*a, prev);
    prev = *a;
  }
}

TEST(Fsa, InverseLookupRoundTrip) {
  DualPortFsa fsa;
  for (double f = 26.6e9; f <= 29.4e9; f += 0.2e9) {
    const auto theta = fsa.beam_angle_deg(FsaPort::kA, f);
    ASSERT_TRUE(theta.has_value());
    const auto f_back = fsa.beam_frequency_hz(FsaPort::kA, *theta);
    ASSERT_TRUE(f_back.has_value());
    EXPECT_NEAR(*f_back, f, 1e3) << "theta = " << *theta;
  }
}

TEST(Fsa, InverseLookupOutOfBandReturnsNullopt) {
  DualPortFsa fsa;
  EXPECT_FALSE(fsa.beam_frequency_hz(FsaPort::kA, 80.0).has_value());
  EXPECT_FALSE(fsa.beam_frequency_hz(FsaPort::kA, -80.0).has_value());
}

TEST(Fsa, PeakGainInFig10Family) {
  // Fig 10: beams peak between ~10 and ~14.3 dBi across the band.
  DualPortFsa fsa;
  EXPECT_GT(fsa.peak_gain_dbi(), 13.0);
  EXPECT_LT(fsa.peak_gain_dbi(), 15.5);
  for (double f : {26.5e9, 27e9, 27.5e9, 28e9, 28.5e9, 29e9, 29.5e9}) {
    const auto theta = fsa.beam_angle_deg(FsaPort::kA, f);
    ASSERT_TRUE(theta.has_value());
    const double g = fsa.gain_dbi(FsaPort::kA, f, *theta);
    EXPECT_GT(g, 10.0) << "f = " << f;
    EXPECT_LT(g, 15.0) << "f = " << f;
  }
}

TEST(Fsa, GainPeaksAtTheBeamAngle) {
  DualPortFsa fsa;
  const double f = 28.7e9;
  const auto theta = fsa.beam_angle_deg(FsaPort::kA, f);
  ASSERT_TRUE(theta.has_value());
  const double peak = fsa.gain_dbi(FsaPort::kA, f, *theta);
  for (double off : {-15.0, -8.0, 8.0, 15.0}) {
    EXPECT_GT(peak, fsa.gain_dbi(FsaPort::kA, f, *theta + off)) << "off " << off;
  }
}

TEST(Fsa, BeamwidthNearTenDegrees) {
  // The paper quotes ~10 degree node beams.
  DualPortFsa fsa;
  EXPECT_NEAR(fsa.beamwidth_deg(28e9), 9.0, 2.0);
}

TEST(Fsa, HalfPowerPointsMatchBeamwidth) {
  DualPortFsa fsa;
  const double f = 28e9;
  const double bw = fsa.beamwidth_deg(f);
  const double peak = fsa.gain_dbi(FsaPort::kA, f, 0.0);
  const double at_half = fsa.gain_dbi(FsaPort::kA, f, bw / 2.0);
  EXPECT_NEAR(peak - at_half, 3.0, 1.0);
}

TEST(Fsa, SidelobeFloorEnforced) {
  DualPortFsa fsa;
  const FsaConfig& cfg = fsa.config();
  // Far off the beam the gain never drops below peak + floor.
  const double floor_dbi = fsa.peak_gain_dbi() + cfg.sidelobe_floor_db - 3.0;
  for (double theta = -60.0; theta <= 60.0; theta += 1.0) {
    EXPECT_GE(fsa.gain_dbi(FsaPort::kA, 28e9, theta), floor_dbi);
  }
}

TEST(Fsa, CrossPortIsolationAtCarrierPair) {
  // At the OAQFM carrier pair, each port's gain at the *other* tone must be
  // sidelobe-level: this is the interference that caps downlink SINR.
  DualPortFsa fsa;
  const auto pair = fsa.carrier_pair_for_angle(20.0);
  ASSERT_TRUE(pair.has_value());
  const double g_signal = fsa.gain_dbi(FsaPort::kA, pair->first, 20.0);
  const double g_leak = fsa.gain_dbi(FsaPort::kA, pair->second, 20.0);
  EXPECT_GT(g_signal - g_leak, 15.0);
}

TEST(Fsa, CarrierPairSymmetricAroundCenter) {
  DualPortFsa fsa;
  const auto pair = fsa.carrier_pair_for_angle(15.0);
  ASSERT_TRUE(pair.has_value());
  // f_A above center, f_B below (positive orientation).
  EXPECT_GT(pair->first, 28e9);
  EXPECT_LT(pair->second, 28e9);
  const auto mirrored = fsa.carrier_pair_for_angle(-15.0);
  ASSERT_TRUE(mirrored.has_value());
  EXPECT_NEAR(mirrored->first, pair->second, 1e3);
  EXPECT_NEAR(mirrored->second, pair->first, 1e3);
}

TEST(Fsa, CarrierPairOutOfScanRangeFails) {
  DualPortFsa fsa;
  EXPECT_FALSE(fsa.carrier_pair_for_angle(45.0).has_value());
}

TEST(Fsa, NormalIncidenceDegeneracy) {
  // "in cases where the node is normal to the AP ... f_A = f_B" -> OOK.
  DualPortFsa fsa;
  EXPECT_TRUE(fsa.normal_incidence(0.0, 1e6));
  const auto pair = fsa.carrier_pair_for_angle(0.0);
  ASSERT_TRUE(pair.has_value());
  EXPECT_NEAR(pair->first, pair->second, 1.0);
  EXPECT_FALSE(fsa.normal_incidence(20.0, 1e6));
}

TEST(Fsa, OtherPortHelper) {
  EXPECT_EQ(other_port(FsaPort::kA), FsaPort::kB);
  EXPECT_EQ(other_port(FsaPort::kB), FsaPort::kA);
}

// Property sweep: for every orientation in the scan range, the carrier pair
// aligns both ports' beams at the node within a fraction of a beamwidth.
class CarrierSweep : public ::testing::TestWithParam<double> {};

TEST_P(CarrierSweep, CarriersAlignBothBeams) {
  DualPortFsa fsa;
  const double orientation = GetParam();
  const auto pair = fsa.carrier_pair_for_angle(orientation);
  ASSERT_TRUE(pair.has_value());
  const auto beam_a = fsa.beam_angle_deg(FsaPort::kA, pair->first);
  const auto beam_b = fsa.beam_angle_deg(FsaPort::kB, pair->second);
  ASSERT_TRUE(beam_a && beam_b);
  EXPECT_NEAR(*beam_a, orientation, 0.01);
  EXPECT_NEAR(*beam_b, orientation, 0.01);
  // And the realized gains at those carriers are main-lobe level.
  EXPECT_GT(fsa.gain_dbi(FsaPort::kA, pair->first, orientation), 9.5);
  EXPECT_GT(fsa.gain_dbi(FsaPort::kB, pair->second, orientation), 9.5);
}

INSTANTIATE_TEST_SUITE_P(ScanRange, CarrierSweep,
                         ::testing::Values(-30.0, -25.0, -20.0, -15.0, -10.0, -5.0, 0.0,
                                           5.0, 10.0, 15.0, 20.0, 25.0, 30.0));

TEST(Fsa, BeamAngleRejectsNanFrequency) {
  const DualPortFsa fsa;
  EXPECT_THROW((void)fsa.beam_angle_deg(FsaPort::kA, std::nan("")), ContractViolation);
}

TEST(Fsa, BeamFrequencyRejectsNanAngle) {
  const DualPortFsa fsa;
  EXPECT_THROW((void)fsa.beam_frequency_hz(FsaPort::kA, std::nan("")), ContractViolation);
}

TEST(Fsa, GainDbiRejectsNanAngle) {
  const DualPortFsa fsa;
  EXPECT_THROW((void)fsa.gain_dbi(FsaPort::kA, 28e9, std::nan("")), ContractViolation);
}

TEST(Fsa, GainLinearRejectsNanFrequency) {
  const DualPortFsa fsa;
  EXPECT_THROW((void)fsa.gain_linear(FsaPort::kB, std::nan(""), 10.0), ContractViolation);
}

TEST(Fsa, BeamwidthRejectsNanFrequency) {
  const DualPortFsa fsa;
  EXPECT_THROW((void)fsa.beamwidth_deg(std::nan("")), ContractViolation);
}

TEST(Fsa, CarrierPairRejectsNanAngle) {
  const DualPortFsa fsa;
  EXPECT_THROW((void)fsa.carrier_pair_for_angle(std::nan("")), ContractViolation);
}

TEST(Fsa, NormalIncidenceRejectsNanAngle) {
  const DualPortFsa fsa;
  EXPECT_THROW((void)fsa.normal_incidence(std::nan(""), 1e8), ContractViolation);
}

TEST(Fsa, ScanRangeRejectsUnboundedBand) {
  // The constructor accepts an infinite upper band edge; the scan range
  // then asks for the beam angle at an infinite frequency.
  FsaConfig cfg;
  cfg.max_frequency_hz = std::numeric_limits<double>::infinity();
  const DualPortFsa fsa(cfg);
  EXPECT_THROW((void)fsa.scan_range_deg(), ContractViolation);
}

}  // namespace
}  // namespace milback::antenna
