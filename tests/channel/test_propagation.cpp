// Propagation primitive tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/channel/propagation.hpp"
#include "milback/core/contract.hpp"
#include "milback/util/units.hpp"

namespace milback::channel {
namespace {

TEST(Propagation, FsplKnownAnchor) {
  // FSPL at 1 m, 28 GHz ~ 61.4 dB.
  EXPECT_NEAR(fspl_db(1.0, 28e9), 61.4, 0.1);
  // +20 dB per decade of distance.
  EXPECT_NEAR(fspl_db(10.0, 28e9) - fspl_db(1.0, 28e9), 20.0, 1e-9);
}

TEST(Propagation, FsplFrequencyScaling) {
  // Doubling frequency adds 6.02 dB.
  EXPECT_NEAR(fspl_db(5.0, 56e9) - fspl_db(5.0, 28e9), 6.02, 0.01);
}

TEST(Propagation, FsplNearFieldClamp) {
  EXPECT_DOUBLE_EQ(fspl_db(0.0, 28e9), fspl_db(0.005, 28e9));
}

TEST(Propagation, FriisComposition) {
  const double p = friis_dbm(27.0, 20.0, 13.0, 2.0, 28e9);
  EXPECT_NEAR(p, 27.0 + 20.0 + 13.0 - fspl_db(2.0, 28e9), 1e-9);
}

TEST(Propagation, BackscatterIsTwoFriisLegs) {
  const double d = 3.0, f = 28e9;
  const double one_way = friis_dbm(27.0, 20.0, 13.0, d, f);
  const double full = backscatter_dbm(27.0, 20.0, 20.0, 13.0, 13.0, 1.0, d, f);
  // Down-leg lands at one_way; up-leg adds node TX gain + AP RX gain - FSPL.
  EXPECT_NEAR(full, one_way + 13.0 + 20.0 - fspl_db(d, f), 1e-9);
}

TEST(Propagation, BackscatterReflectCoefficient) {
  const double full = backscatter_dbm(27.0, 20.0, 20.0, 13.0, 13.0, 1.0, 3.0, 28e9);
  const double half = backscatter_dbm(27.0, 20.0, 20.0, 13.0, 13.0, 0.5, 3.0, 28e9);
  EXPECT_NEAR(full - half, 3.01, 0.01);
}

TEST(Propagation, BackscatterRejectsNanFrequency) {
  EXPECT_THROW(backscatter_dbm(27.0, 20.0, 20.0, 13.0, 13.0, 1.0, 3.0,
                               std::nan("")),
               ContractViolation);
}

TEST(Propagation, BackscatterFortyDbPerDecade) {
  const double p1 = backscatter_dbm(27.0, 20.0, 20.0, 13.0, 13.0, 1.0, 1.0, 28e9);
  const double p10 = backscatter_dbm(27.0, 20.0, 20.0, 13.0, 13.0, 1.0, 10.0, 28e9);
  EXPECT_NEAR(p1 - p10, 40.0, 1e-9);
}

TEST(Propagation, RadarEquationFourthPower) {
  const double p2 = radar_return_dbm(27.0, 20.0, 20.0, 1.0, 2.0, 28e9);
  const double p4 = radar_return_dbm(27.0, 20.0, 20.0, 1.0, 4.0, 28e9);
  EXPECT_NEAR(p2 - p4, 40.0 * std::log10(2.0), 1e-6);
}

TEST(Propagation, RadarEquationRcsLinear) {
  const double p1 = radar_return_dbm(27.0, 20.0, 20.0, 1.0, 3.0, 28e9);
  const double p01 = radar_return_dbm(27.0, 20.0, 20.0, 0.1, 3.0, 28e9);
  EXPECT_NEAR(p1 - p01, 10.0, 1e-6);
}

TEST(Propagation, Delays) {
  EXPECT_NEAR(round_trip_delay_s(3.0), 6.0 / kSpeedOfLight, 1e-18);
  // 8 m round trip ~ 53.4 ns (the paper's max range regime).
  EXPECT_NEAR(round_trip_delay_s(8.0) * 1e9, 53.4, 0.1);
}

TEST(Propagation, RadarReturnRejectsNanFrequency) {
  EXPECT_THROW((void)radar_return_dbm(10.0, 20.0, 20.0, 0.01, 2.0, std::nan("")),
               ContractViolation);
}

}  // namespace
}  // namespace milback::channel
