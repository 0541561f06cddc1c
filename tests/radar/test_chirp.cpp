// FMCW chirp definition tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/radar/chirp.hpp"
#include "milback/util/units.hpp"

namespace milback::radar {
namespace {

TEST(Chirp, PaperFieldDefaults) {
  const auto f1 = field1_chirp();
  EXPECT_EQ(f1.shape, ChirpShape::kTriangular);
  EXPECT_DOUBLE_EQ(f1.duration_s, 45e-6);
  EXPECT_DOUBLE_EQ(f1.bandwidth_hz, 3e9);
  EXPECT_DOUBLE_EQ(f1.start_frequency_hz, 26.5e9);

  const auto f2 = field2_chirp();
  EXPECT_EQ(f2.shape, ChirpShape::kSawtooth);
  EXPECT_DOUBLE_EQ(f2.duration_s, 18e-6);
  EXPECT_DOUBLE_EQ(f2.center_frequency_hz(), 28e9);
}

TEST(Chirp, SawtoothSlope) {
  const auto c = field2_chirp();
  EXPECT_NEAR(c.slope_hz_per_s(), 3e9 / 18e-6, 1.0);
}

TEST(Chirp, TriangularSlopeUsesHalfDuration) {
  const auto c = field1_chirp();
  EXPECT_NEAR(c.slope_hz_per_s(), 3e9 / 22.5e-6, 1.0);
}

TEST(Chirp, SawtoothFrequencyProfile) {
  const auto c = field2_chirp();
  EXPECT_DOUBLE_EQ(c.frequency_at(0.0), 26.5e9);
  EXPECT_NEAR(c.frequency_at(9e-6), 28e9, 1.0);
  EXPECT_NEAR(c.frequency_at(18e-6), 29.5e9, 1.0);
  // Clamped outside [0, T].
  EXPECT_DOUBLE_EQ(c.frequency_at(-1.0), 26.5e9);
  EXPECT_NEAR(c.frequency_at(1.0), 29.5e9, 1.0);
}

TEST(Chirp, TriangularVShape) {
  const auto c = field1_chirp();
  EXPECT_DOUBLE_EQ(c.frequency_at(0.0), 26.5e9);
  EXPECT_NEAR(c.frequency_at(22.5e-6), 29.5e9, 1.0);  // apex
  EXPECT_NEAR(c.frequency_at(45e-6), 26.5e9, 1e3);    // back down
  // Symmetric about the apex.
  EXPECT_NEAR(c.frequency_at(10e-6), c.frequency_at(35e-6), 1e3);
}

TEST(Chirp, SawtoothSingleCrossing) {
  const auto c = field2_chirp();
  double t[2];
  ASSERT_EQ(c.crossings(28e9, t), 1u);
  EXPECT_NEAR(t[0], 9e-6, 1e-12);
  EXPECT_EQ(c.crossings(25e9, t), 0u);
  EXPECT_EQ(c.crossings(30e9, t), 0u);
}

TEST(Chirp, TriangularTwoCrossingsSymmetric) {
  const auto c = field1_chirp();
  double t[2];
  ASSERT_EQ(c.crossings(28.0e9, t), 2u);
  EXPECT_LT(t[0], t[1]);
  // Crossings are symmetric about the apex at T/2.
  EXPECT_NEAR(t[0] + t[1], c.duration_s, 1e-12);
  // The peak-separation formula the node inverts: dt = T - 2(f-f0)/slope.
  const double dt_expected = c.duration_s - 2.0 * (28.0e9 - 26.5e9) / c.slope_hz_per_s();
  EXPECT_NEAR(t[1] - t[0], dt_expected, 1e-12);
}

TEST(Chirp, RangeResolutionFiveCm) {
  // c / (2 * 3 GHz) = 5 cm: the paper's headline sweep resolution.
  EXPECT_NEAR(field2_chirp().range_resolution_m(), 0.05, 1e-4);
}

TEST(Chirp, BeatFrequencyForEightMeters) {
  const auto c = field2_chirp();
  const double tau = 2.0 * 8.0 / kSpeedOfLight;
  EXPECT_NEAR(c.beat_frequency_hz(tau) / 1e6, 8.9, 0.1);
}

TEST(Chirp, MaxRangeFromSampleRate) {
  const auto c = field2_chirp();
  // At 50 MS/s (real Nyquist fs/2 = 25 MHz) -> max ~22.5 m.
  EXPECT_NEAR(c.max_range_m(50e6), 22.5, 0.1);
}

// Contracts on the synthesis path reach the caller as ContractViolation
// (neither function is noexcept, so a NaN cannot terminate the program).
TEST(Chirp, FrequencyAtRejectsNanTime) {
  EXPECT_THROW((void)field2_chirp().frequency_at(std::nan("")), ContractViolation);
}

TEST(Chirp, CrossingsRejectsNanFrequency) {
  double t[2] = {0.0, 0.0};
  EXPECT_THROW((void)field1_chirp().crossings(std::nan(""), t), ContractViolation);
}

}  // namespace
}  // namespace milback::radar
