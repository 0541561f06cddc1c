// OAQFM symbol mapping tests — the tables must match the paper exactly.
#include <gtest/gtest.h>

#include "milback/core/oaqfm.hpp"

namespace milback::core {
namespace {

TEST(Oaqfm, DownlinkToneTableMatchesFig6) {
  // "if the AP wants to send bits '01' or '10', it transmits a single tone
  // at f_B or f_A, respectively. ... '11' -> two tones."
  EXPECT_FALSE(downlink_tones(OaqfmSymbol::k00).tone_a);
  EXPECT_FALSE(downlink_tones(OaqfmSymbol::k00).tone_b);
  EXPECT_FALSE(downlink_tones(OaqfmSymbol::k01).tone_a);
  EXPECT_TRUE(downlink_tones(OaqfmSymbol::k01).tone_b);
  EXPECT_TRUE(downlink_tones(OaqfmSymbol::k10).tone_a);
  EXPECT_FALSE(downlink_tones(OaqfmSymbol::k10).tone_b);
  EXPECT_TRUE(downlink_tones(OaqfmSymbol::k11).tone_a);
  EXPECT_TRUE(downlink_tones(OaqfmSymbol::k11).tone_b);
}

TEST(Oaqfm, UplinkPortTableMatchesSection63) {
  // "to send '01' to the AP, the node reflects the tone at f_A while
  // absorbing the tone at f_B. Similarly to sending '10' ... reflects f_B."
  EXPECT_FALSE(uplink_ports(OaqfmSymbol::k00).reflect_a);
  EXPECT_FALSE(uplink_ports(OaqfmSymbol::k00).reflect_b);
  EXPECT_TRUE(uplink_ports(OaqfmSymbol::k01).reflect_a);
  EXPECT_FALSE(uplink_ports(OaqfmSymbol::k01).reflect_b);
  EXPECT_FALSE(uplink_ports(OaqfmSymbol::k10).reflect_a);
  EXPECT_TRUE(uplink_ports(OaqfmSymbol::k10).reflect_b);
  EXPECT_TRUE(uplink_ports(OaqfmSymbol::k11).reflect_a);
  EXPECT_TRUE(uplink_ports(OaqfmSymbol::k11).reflect_b);
}

TEST(Oaqfm, DecideInvertsMappings) {
  for (const auto s : {OaqfmSymbol::k00, OaqfmSymbol::k01, OaqfmSymbol::k10,
                       OaqfmSymbol::k11}) {
    const auto t = downlink_tones(s);
    EXPECT_EQ(downlink_decide(t.tone_a, t.tone_b), s);
    const auto p = uplink_ports(s);
    EXPECT_EQ(uplink_decide(p.reflect_a, p.reflect_b), s);
  }
}

TEST(Oaqfm, BitsPerSymbol) {
  EXPECT_EQ(bits_per_symbol(ModulationMode::kOaqfm), 2u);
  EXPECT_EQ(bits_per_symbol(ModulationMode::kOok), 1u);
}

TEST(Oaqfm, BitsSymbolsRoundTrip) {
  const std::vector<bool> bits{true, false, false, true, true, true, false, false};
  const auto syms = symbols_from_bits(bits);
  ASSERT_EQ(syms.size(), 4u);
  EXPECT_EQ(syms[0], OaqfmSymbol::k10);
  EXPECT_EQ(syms[1], OaqfmSymbol::k01);
  EXPECT_EQ(syms[2], OaqfmSymbol::k11);
  EXPECT_EQ(syms[3], OaqfmSymbol::k00);
  EXPECT_EQ(bits_from_symbols(syms), bits);
}

TEST(Oaqfm, OddBitCountPadsWithZero) {
  const auto syms = symbols_from_bits({true});
  ASSERT_EQ(syms.size(), 1u);
  EXPECT_EQ(syms[0], OaqfmSymbol::k10);
}

TEST(Oaqfm, PilotAlternates) {
  const auto p = uplink_pilot(5);
  ASSERT_EQ(p.size(), 5u);
  EXPECT_EQ(p[0], OaqfmSymbol::k11);
  EXPECT_EQ(p[1], OaqfmSymbol::k00);
  EXPECT_EQ(p[4], OaqfmSymbol::k11);
}

TEST(Oaqfm, ToString) {
  EXPECT_EQ(to_string(OaqfmSymbol::k00), "00");
  EXPECT_EQ(to_string(OaqfmSymbol::k01), "01");
  EXPECT_EQ(to_string(OaqfmSymbol::k10), "10");
  EXPECT_EQ(to_string(OaqfmSymbol::k11), "11");
}

}  // namespace
}  // namespace milback::core
