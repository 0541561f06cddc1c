// BER mathematics tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/core/ber.hpp"
#include "milback/util/units.hpp"

namespace milback::core {
namespace {

TEST(Ber, QFunctionAnchors) {
  EXPECT_NEAR(q_function(0.0), 0.5, 1e-12);
  EXPECT_NEAR(q_function(1.0), 0.15866, 1e-4);
  EXPECT_NEAR(q_function(3.0), 1.35e-3, 1e-4);
  EXPECT_NEAR(q_function(-1.0), 1.0 - 0.15866, 1e-4);
}

TEST(Ber, NoncoherentOokFormula) {
  EXPECT_NEAR(ber_ook_noncoherent(0.0), 0.5, 1e-12);
  EXPECT_NEAR(ber_ook_noncoherent(10.0), 0.5 * std::exp(-5.0), 1e-9);
  EXPECT_DOUBLE_EQ(ber_ook_noncoherent(-3.0), 0.5);
}

TEST(Ber, NoncoherentMonotoneDecreasing) {
  double prev = 1.0;
  for (double snr_db = -10.0; snr_db <= 25.0; snr_db += 1.0) {
    const double ber = ber_ook_noncoherent(db2lin(snr_db));
    EXPECT_LE(ber, prev);
    prev = ber;
  }
}

TEST(Ber, PaperOperatingPoints) {
  // Fig 15a markers (our calibration maps them to these SNRs):
  // ~12 dB -> ~2e-4; ~15.3 dB -> ~2e-8; ~16.6 dB -> ~1e-10.
  EXPECT_NEAR(std::log10(ber_ook_noncoherent(db2lin(12.0))), std::log10(2e-4), 0.6);
  EXPECT_NEAR(std::log10(ber_ook_noncoherent(db2lin(15.3))), std::log10(2e-8), 0.8);
  EXPECT_NEAR(std::log10(ber_ook_noncoherent(db2lin(16.6))), std::log10(1e-10), 1.0);
}

TEST(Ber, OaqfmAveragesTones) {
  const double a = db2lin(12.0), b = db2lin(18.0);
  EXPECT_NEAR(ber_oaqfm(a, b),
              0.5 * (ber_ook_noncoherent(a) + ber_ook_noncoherent(b)), 1e-15);
  // Equal tones degenerate to single-tone BER.
  EXPECT_NEAR(ber_oaqfm(a, a), ber_ook_noncoherent(a), 1e-15);
}

TEST(Ber, EmpiricalBer) {
  EXPECT_DOUBLE_EQ(empirical_ber(0, 1000), 0.0);
  EXPECT_DOUBLE_EQ(empirical_ber(5, 1000), 0.005);
  EXPECT_DOUBLE_EQ(empirical_ber(3, 0), 0.0);
}

}  // namespace
}  // namespace milback::core
