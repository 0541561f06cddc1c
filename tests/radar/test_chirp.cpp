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

TEST(Chirp, RangeResolutionFiveCm) {
  // c / (2 * 3 GHz) = 5 cm: the paper's headline sweep resolution.
  EXPECT_NEAR(field2_chirp().range_resolution_m(), 0.05, 1e-4);
}

// Contracts on the synthesis path reach the caller as ContractViolation
// (neither function is noexcept, so a NaN cannot terminate the program).
TEST(Chirp, FrequencyAtRejectsNanTime) {
  EXPECT_THROW((void)field2_chirp().frequency_at(std::nan("")), ContractViolation);
}

}  // namespace
}  // namespace milback::radar
