// Unit and dB arithmetic tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/util/units.hpp"

namespace milback {
namespace {

TEST(Units, DbRoundTrip) {
  for (double db : {-40.0, -10.0, -3.0, 0.0, 3.0, 10.0, 27.0}) {
    EXPECT_NEAR(lin2db(db2lin(db)), db, 1e-12);
  }
}

TEST(Units, DbmWattRoundTrip) {
  for (double dbm : {-100.0, -30.0, 0.0, 27.0}) {
    EXPECT_NEAR(watt2dbm(dbm2watt(dbm)), dbm, 1e-12);
  }
}

TEST(Units, KnownDbAnchors) {
  EXPECT_NEAR(db2lin(3.0103), 2.0, 1e-3);
  EXPECT_NEAR(db2lin(10.0), 10.0, 1e-12);
  EXPECT_NEAR(dbm2watt(0.0), 1e-3, 1e-15);
  EXPECT_NEAR(dbm2watt(30.0), 1.0, 1e-12);
}

TEST(Units, AmplitudeDb) {
  EXPECT_NEAR(amp2db(10.0), 20.0, 1e-12);
}

TEST(Units, DegRadRoundTrip) {
  for (double deg : {-180.0, -30.0, 0.0, 45.0, 90.0}) {
    EXPECT_NEAR(rad2deg(deg2rad(deg)), deg, 1e-12);
  }
}

TEST(Units, WavelengthAt28GHz) {
  // The paper's band center: lambda ~ 10.7 mm.
  EXPECT_NEAR(wavelength(28e9), 0.010707, 1e-5);
}

TEST(Units, ThermalNoiseMinus174) {
  // kTB at 1 Hz, 290 K = -174 dBm/Hz (the universal anchor).
  EXPECT_NEAR(watt2dbm(thermal_noise_power(1.0)), -173.98, 0.05);
  // 1 MHz -> -114 dBm.
  EXPECT_NEAR(watt2dbm(thermal_noise_power(1e6)), -113.98, 0.05);
}

TEST(Units, ThermalNoiseScalesLinearlyWithBandwidth) {
  const double p1 = thermal_noise_power(1e6);
  const double p4 = thermal_noise_power(4e6);
  EXPECT_NEAR(p4 / p1, 4.0, 1e-12);
}

TEST(Units, WrapRadians) {
  EXPECT_NEAR(wrap_radians(3.0 * kPi), -kPi, 1e-9);
  EXPECT_NEAR(wrap_radians(-3.0 * kPi), -kPi, 1e-9);
  EXPECT_NEAR(wrap_radians(0.5), 0.5, 1e-12);
}

// Property sweep (angles in degrees): wrap_radians is idempotent and lands
// in [-pi, pi).
class WrapSweep : public ::testing::TestWithParam<double> {};

TEST_P(WrapSweep, InRangeAndIdempotent) {
  const double w = wrap_radians(deg2rad(GetParam()));
  EXPECT_GE(w, -kPi);
  EXPECT_LT(w, kPi);
  EXPECT_NEAR(wrap_radians(w), w, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(ManyAngles, WrapSweep,
                         ::testing::Values(-1000.0, -359.9, -181.0, -0.5, 0.0, 0.5,
                                           179.9, 180.0, 723.4, 99999.0));

TEST(Units, WrapRadiansRejectsNan) {
  EXPECT_THROW((void)wrap_radians(std::nan("")), ContractViolation);
}

}  // namespace
}  // namespace milback
