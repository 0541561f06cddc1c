// Hamming(7,4) FEC tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/core/fec.hpp"
#include "milback/util/rng.hpp"

namespace milback::core {
namespace {

TEST(Fec, EncodeExpandsBySevenFourths) {
  const auto coded = hamming74_encode(std::vector<bool>(16, true));
  EXPECT_EQ(coded.size(), 28u);
}

TEST(Fec, PadsPartialBlock) {
  const auto coded = hamming74_encode(std::vector<bool>(5, true));
  EXPECT_EQ(coded.size(), 14u);  // two blocks
}

TEST(Fec, CleanRoundTrip) {
  Rng rng(1);
  const auto data = rng.bits(400);
  const auto coded = hamming74_encode(data);
  const auto dec = hamming74_decode(coded);
  EXPECT_EQ(dec.corrected, 0u);
  ASSERT_GE(dec.data.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(dec.data[i], data[i]) << "bit " << i;
  }
}

TEST(Fec, CorrectsAnySingleBitError) {
  Rng rng(2);
  const auto data = rng.bits(4);
  const auto coded = hamming74_encode(data);
  for (std::size_t flip = 0; flip < 7; ++flip) {
    auto corrupted = coded;
    corrupted[flip] = !corrupted[flip];
    const auto dec = hamming74_decode(corrupted);
    EXPECT_EQ(dec.corrected, 1u) << "flip " << flip;
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(dec.data[i], data[i]) << "flip " << flip << " bit " << i;
    }
  }
}

TEST(Fec, DoubleErrorsAreNotCorrected) {
  const std::vector<bool> data{true, false, true, true};
  auto coded = hamming74_encode(data);
  coded[0] = !coded[0];
  coded[3] = !coded[3];
  const auto dec = hamming74_decode(coded);
  bool mismatch = false;
  for (std::size_t i = 0; i < 4; ++i) mismatch |= dec.data[i] != data[i];
  EXPECT_TRUE(mismatch);  // (7,4) cannot fix two errors
}

TEST(Fec, DropsTrailingPartialBlock) {
  const auto dec = hamming74_decode(std::vector<bool>(10, true));
  EXPECT_EQ(dec.blocks, 1u);
  EXPECT_EQ(dec.data.size(), 4u);
}

TEST(Fec, CodedBerBeatsRawAtLowBer) {
  for (double p : {1e-2, 1e-3, 1e-4}) {
    EXPECT_LT(hamming74_coded_ber(p), p) << "raw " << p;
  }
  // Quadratic improvement: 10x lower raw -> ~100x lower coded.
  const double r = hamming74_coded_ber(1e-3) / hamming74_coded_ber(1e-4);
  EXPECT_NEAR(r, 100.0, 30.0);
}

TEST(Fec, CodedBerEdgeCases) {
  EXPECT_DOUBLE_EQ(hamming74_coded_ber(0.0), 0.0);
  EXPECT_LE(hamming74_coded_ber(0.5), 0.5);
  double prev = 0.0;
  for (double p = 0.0; p <= 0.2; p += 0.01) {
    const double c = hamming74_coded_ber(p);
    EXPECT_GE(c, prev - 1e-12);
    prev = c;
  }
}

TEST(Fec, AnalyticMatchesMonteCarlo) {
  // Flip bits at p = 2e-2 and compare the decoded BER to the model.
  Rng rng(3);
  const double p = 0.02;
  const auto data = rng.bits(40000);
  auto coded = hamming74_encode(data);
  for (std::size_t i = 0; i < coded.size(); ++i) {
    if (rng.bernoulli(p)) coded[i] = !coded[i];
  }
  const auto dec = hamming74_decode(coded);
  std::size_t errors = 0;
  for (std::size_t i = 0; i < data.size(); ++i) errors += dec.data[i] != data[i];
  const double measured = double(errors) / double(data.size());
  const double predicted = hamming74_coded_ber(p);
  EXPECT_NEAR(std::log10(measured), std::log10(predicted), 0.35);
}

TEST(Fec, DataRateScaling) {
  EXPECT_NEAR(hamming74_data_rate(36e6) / 1e6, 36.0 * 4.0 / 7.0 / 1.0, 0.1);
}

TEST(Fec, CodedBerRejectsNan) {
  EXPECT_THROW((void)hamming74_coded_ber(std::nan("")), ContractViolation);
}

}  // namespace
}  // namespace milback::core
