// Dense OAQFM (multi-level per tone, paper §9.4 extension) tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/core/oaqfm_dense.hpp"
#include "milback/util/rng.hpp"
#include "milback/util/units.hpp"

namespace milback::core {
namespace {

TEST(DenseOaqfm, ValidLevels) {
  EXPECT_TRUE(valid_levels(2));
  EXPECT_TRUE(valid_levels(4));
  EXPECT_TRUE(valid_levels(8));
  EXPECT_TRUE(valid_levels(16));
  EXPECT_FALSE(valid_levels(1));
  EXPECT_FALSE(valid_levels(3));
  EXPECT_FALSE(valid_levels(6));
  EXPECT_FALSE(valid_levels(32));
}

TEST(DenseOaqfm, BitsPerSymbol) {
  EXPECT_EQ(dense_bits_per_symbol(2), 2u);  // standard OAQFM
  EXPECT_EQ(dense_bits_per_symbol(4), 4u);
  EXPECT_EQ(dense_bits_per_symbol(8), 6u);
  EXPECT_EQ(dense_bits_per_symbol(3), 0u);
}

TEST(DenseOaqfm, PowerLevelsUniform) {
  // Uniform spacing in the detector's power domain.
  for (unsigned L : {2u, 4u, 8u}) {
    for (unsigned k = 0; k + 1 < L; ++k) {
      const double gap = level_power_fraction(k + 1, L) - level_power_fraction(k, L);
      EXPECT_NEAR(gap, 1.0 / double(L - 1), 1e-12);
    }
    EXPECT_DOUBLE_EQ(level_power_fraction(0, L), 0.0);
    EXPECT_DOUBLE_EQ(level_power_fraction(L - 1, L), 1.0);
  }
}

TEST(DenseOaqfm, SlicerNearestLevel) {
  const double vf = 3.0;
  EXPECT_EQ(slice_level(0.0, vf, 4), 0);
  EXPECT_EQ(slice_level(1.0, vf, 4), 1);
  EXPECT_EQ(slice_level(1.4, vf, 4), 1);
  EXPECT_EQ(slice_level(1.6, vf, 4), 2);
  EXPECT_EQ(slice_level(3.0, vf, 4), 3);
  EXPECT_EQ(slice_level(99.0, vf, 4), 3);   // clamps
  EXPECT_EQ(slice_level(-1.0, vf, 4), 0);   // clamps
  EXPECT_EQ(slice_level(1.0, 0.0, 4), 0);   // degenerate full scale
}

TEST(DenseOaqfm, GrayCodeRoundTrip) {
  for (int v = 0; v < 16; ++v) {
    EXPECT_EQ(gray_decode(gray_encode(std::uint8_t(v))), v);
  }
  // Adjacent values differ in exactly one Gray bit.
  for (int v = 0; v < 15; ++v) {
    const auto diff = gray_encode(std::uint8_t(v)) ^ gray_encode(std::uint8_t(v + 1));
    EXPECT_EQ(__builtin_popcount(unsigned(diff)), 1) << v;
  }
}

TEST(DenseOaqfm, BitsSymbolsRoundTrip) {
  for (unsigned L : {2u, 4u, 8u}) {
    Rng rng(L);
    const auto bits = rng.bits(120);
    const auto syms = dense_symbols_from_bits(bits, L);
    auto back = dense_bits_from_symbols(syms, L);
    back.resize(bits.size());
    EXPECT_EQ(back, bits) << "L = " << L;
  }
}

TEST(DenseOaqfm, SymbolCount) {
  // 10 bits at L=4 (4 bits/symbol) -> 3 symbols (padded).
  const auto syms = dense_symbols_from_bits(std::vector<bool>(10, true), 4);
  EXPECT_EQ(syms.size(), 3u);
}

TEST(DenseOaqfm, TwoLevelMatchesStandardOaqfmRate) {
  // L = 2 must carry exactly 2 bits/symbol like classic OAQFM.
  const std::vector<bool> bits{true, false, false, true};
  const auto syms = dense_symbols_from_bits(bits, 2);
  ASSERT_EQ(syms.size(), 2u);
  EXPECT_EQ(syms[0].level_a, 1);
  EXPECT_EQ(syms[0].level_b, 0);
  EXPECT_EQ(syms[1].level_a, 0);
  EXPECT_EQ(syms[1].level_b, 1);
}

TEST(DenseOaqfm, BerMonotoneInSnrAndLevels) {
  for (unsigned L : {2u, 4u, 8u}) {
    double prev = 1.0;
    for (double snr_db = 0.0; snr_db <= 40.0; snr_db += 2.0) {
      const double ber = ber_dense_ask(db2lin(snr_db), L);
      EXPECT_LE(ber, prev + 1e-15);
      prev = ber;
    }
  }
  // Denser constellations need more SNR at the same BER.
  const double snr = db2lin(22.0);
  EXPECT_LT(ber_dense_ask(snr, 2), ber_dense_ask(snr, 4));
  EXPECT_LT(ber_dense_ask(snr, 4), ber_dense_ask(snr, 8));
}

TEST(DenseOaqfm, SnrPenalty) {
  EXPECT_NEAR(dense_snr_penalty_db(2), 0.0, 1e-12);
  EXPECT_NEAR(dense_snr_penalty_db(4), 20.0 * std::log10(3.0), 1e-9);  // ~9.54 dB
  EXPECT_NEAR(dense_snr_penalty_db(8), 20.0 * std::log10(7.0), 1e-9);
}

TEST(DenseOaqfm, PenaltyShiftsBerCurve) {
  // BER(L) at snr + penalty ~ BER(2) at snr: the penalty is the horizontal
  // shift of the waterfall (up to the multiplicity prefactor).
  const double snr_db = 16.0;
  const double b2 = ber_dense_ask(db2lin(snr_db), 2);
  const double b4 = ber_dense_ask(db2lin(snr_db + dense_snr_penalty_db(4)), 4);
  EXPECT_NEAR(std::log10(b4), std::log10(b2), 0.6);
}

TEST(DenseOaqfm, BerRejectsNanSnr) {
  EXPECT_THROW((void)ber_dense_ask(std::nan(""), 4), ContractViolation);
}

}  // namespace
}  // namespace milback::core
