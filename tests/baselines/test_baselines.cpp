// Baseline system model tests (Table 1 lineup).
#include <gtest/gtest.h>

#include <cmath>

#include "milback/baselines/capability.hpp"
#include "milback/baselines/millimetro.hpp"
#include "milback/baselines/mmtag.hpp"
#include "milback/baselines/omniscatter.hpp"
#include "milback/baselines/van_atta.hpp"
#include "milback/core/contract.hpp"

namespace milback::baselines {
namespace {

TEST(VanAtta, RejectsZeroElements) {
  VanAttaConfig cfg;
  cfg.n_elements = 0;
  EXPECT_THROW(VanAttaArray{cfg}, std::invalid_argument);
}

TEST(VanAtta, RetrodirectiveOverFov) {
  VanAttaArray va;
  EXPECT_GT(va.retro_gain_db(0.0), 20.0);
  // Works across the FOV with graceful rolloff, collapses outside.
  EXPECT_GT(va.retro_gain_db(30.0), va.retro_gain_db(60.0) + 20.0);
  EXPECT_LT(va.aperture_gain_dbi(60.0), 0.0);
}

TEST(VanAtta, StructurallyPortless) {
  EXPECT_FALSE(VanAttaArray::has_signal_port());
}

TEST(MmTag, Table1Row) {
  MmTag tag;
  const auto caps = tag.capabilities();
  EXPECT_TRUE(caps.uplink);
  EXPECT_FALSE(caps.downlink);
  EXPECT_FALSE(caps.localization);
  EXPECT_FALSE(caps.orientation);
}

TEST(MmTag, EnergyPerBitIs24) {
  MmTag tag;
  ASSERT_TRUE(tag.energy_per_bit_nj().has_value());
  EXPECT_DOUBLE_EQ(*tag.energy_per_bit_nj(), 2.4);
}

TEST(MmTag, UplinkSnrDecaysWithDistance) {
  MmTag tag;
  const auto s2 = tag.uplink_snr_db(2.0, 10e6);
  const auto s8 = tag.uplink_snr_db(8.0, 10e6);
  ASSERT_TRUE(s2 && s8);
  EXPECT_NEAR(*s2 - *s8, 40.0 * std::log10(4.0), 0.5);
}

TEST(Millimetro, Table1Row) {
  Millimetro tag;
  const auto caps = tag.capabilities();
  EXPECT_FALSE(caps.uplink);
  EXPECT_FALSE(caps.downlink);
  EXPECT_TRUE(caps.localization);
  EXPECT_FALSE(caps.orientation);
  EXPECT_FALSE(tag.uplink_snr_db(3.0, 1e6).has_value());
  EXPECT_DOUBLE_EQ(tag.max_uplink_rate_bps(), 0.0);
}

TEST(Millimetro, CoarserRangeResolutionThanMilBack) {
  // Commodity radar sweep (250 MHz) -> 60 cm bins vs MilBack's 5 cm.
  Millimetro tag;
  EXPECT_NEAR(tag.range_resolution_m(), 0.6, 0.01);
}

TEST(OmniScatter, Table1Row) {
  OmniScatter tag;
  const auto caps = tag.capabilities();
  EXPECT_TRUE(caps.uplink);
  EXPECT_FALSE(caps.downlink);
  EXPECT_TRUE(caps.localization);
  EXPECT_FALSE(caps.orientation);
}

TEST(OmniScatter, ExtremeSensitivityLowRate) {
  OmniScatter tag;
  // Huge range at its low rate...
  const auto far = tag.uplink_snr_db(30.0, 1e3);
  ASSERT_TRUE(far.has_value());
  EXPECT_GT(*far, 10.0);
  // ...but the rate ceiling is orders of magnitude below MilBack's.
  EXPECT_LE(tag.max_uplink_rate_bps(), 1e6);
}

TEST(ComparisonLineup, MatchesTable1) {
  const auto systems = make_comparison_systems();
  ASSERT_EQ(systems.size(), 4u);
  // Exactly one system (MilBack) supports everything.
  int full = 0;
  for (const auto& s : systems) {
    const auto c = s->capabilities();
    if (c.uplink && c.downlink && c.localization && c.orientation) {
      ++full;
      EXPECT_EQ(s->name(), "MilBack");
    }
  }
  EXPECT_EQ(full, 1);
}

TEST(ComparisonLineup, MilBackBeatsMmTagEnergy) {
  const auto systems = make_comparison_systems();
  std::optional<double> mmtag_e, milback_e;
  for (const auto& s : systems) {
    if (s->name() == "mmTag") mmtag_e = s->energy_per_bit_nj();
    if (s->name() == "MilBack") milback_e = s->energy_per_bit_nj();
  }
  ASSERT_TRUE(mmtag_e && milback_e);
  EXPECT_LT(*milback_e, *mmtag_e / 2.0);
}

TEST(ComparisonLineup, MilBackUplinkSnrFinite) {
  const auto systems = make_comparison_systems();
  for (const auto& s : systems) {
    if (s->name() != "MilBack") continue;
    const auto snr = s->uplink_snr_db(4.0, 10e6);
    ASSERT_TRUE(snr.has_value());
    EXPECT_GT(*snr, 10.0);
    EXPECT_NEAR(s->max_uplink_rate_bps() / 1e6, 160.0, 10.0);
  }
}

TEST(VanAtta, ApertureGainRejectsNanIncidence) {
  const VanAttaArray va{VanAttaConfig{}};
  EXPECT_THROW((void)va.aperture_gain_dbi(std::nan("")), ContractViolation);
}

TEST(VanAtta, RetroGainRejectsNanIncidence) {
  const VanAttaArray va{VanAttaConfig{}};
  EXPECT_THROW((void)va.retro_gain_db(std::nan("")), ContractViolation);
}

}  // namespace
}  // namespace milback::baselines
