// Packet structure and Field-1 direction signalling tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/core/packet.hpp"

namespace milback::core {
namespace {

TEST(Packet, TimingComposition) {
  PacketConfig cfg;
  cfg.payload_symbols = 1000;
  const double symbol_rate = 5e6;
  const auto up = compute_timing(cfg, LinkDirection::kUplink, symbol_rate);
  EXPECT_NEAR(up.field1_s, 3 * 45e-6, 1e-12);
  EXPECT_NEAR(up.field2_s, 5 * 18e-6, 1e-12);
  EXPECT_NEAR(up.payload_s, 200e-6, 1e-12);
  EXPECT_NEAR(up.total_s, up.field1_s + up.field2_s + up.payload_s, 1e-15);

  const auto down = compute_timing(cfg, LinkDirection::kDownlink, symbol_rate);
  EXPECT_NEAR(down.field1_s, 2 * 45e-6 + cfg.preamble.field1_gap_s, 1e-12);
}

TEST(Packet, ZeroSymbolRateHasNoPayloadTime) {
  PacketConfig cfg;
  const auto t = compute_timing(cfg, LinkDirection::kUplink, 0.0);
  EXPECT_DOUBLE_EQ(t.payload_s, 0.0);
}

TEST(Packet, Field1StartsUplink) {
  PreambleConfig cfg;
  const auto starts = field1_chirp_starts(cfg, LinkDirection::kUplink);
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_DOUBLE_EQ(starts[0], 0.0);
  EXPECT_NEAR(starts[1], 45e-6, 1e-12);
  EXPECT_NEAR(starts[2], 90e-6, 1e-12);
}

TEST(Packet, Field1StartsDownlinkHaveGap) {
  PreambleConfig cfg;
  const auto starts = field1_chirp_starts(cfg, LinkDirection::kDownlink);
  ASSERT_EQ(starts.size(), 2u);
  EXPECT_DOUBLE_EQ(starts[0], 0.0);
  EXPECT_NEAR(starts[1], 45e-6 + cfg.field1_gap_s, 1e-12);
}

// Builds a synthetic MCU envelope trace with humps at each chirp's two
// aligned-frequency crossings (offset `cross_frac` into each half-sweep).
std::vector<double> synthetic_field1_trace(const PreambleConfig& cfg,
                                           LinkDirection dir, double cross_frac,
                                           double fs = 1e6) {
  const auto starts = field1_chirp_starts(cfg, dir);
  const double T = cfg.field1.duration_s;
  const double total = starts.back() + T;
  std::vector<double> v(std::size_t(total * fs), 0.0);
  for (const double s : starts) {
    const double t1 = s + cross_frac * T / 2.0;
    const double t2 = s + T - cross_frac * T / 2.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      const double t = double(i) / fs;
      for (const double tc : {t1, t2}) {
        const double d = (t - tc) / 2e-6;
        v[i] += std::exp(-d * d);
      }
    }
  }
  return v;
}

TEST(Packet, DetectsUplinkPreamble) {
  PreambleConfig cfg;
  for (double frac : {0.2, 0.5, 0.8}) {
    const auto trace = synthetic_field1_trace(cfg, LinkDirection::kUplink, frac);
    const auto dir = detect_direction(trace, 1e6, cfg);
    ASSERT_TRUE(dir.has_value()) << "frac " << frac;
    EXPECT_EQ(*dir, LinkDirection::kUplink) << "frac " << frac;
  }
}

TEST(Packet, DetectsDownlinkPreamble) {
  PreambleConfig cfg;
  for (double frac : {0.2, 0.5, 0.8}) {
    const auto trace = synthetic_field1_trace(cfg, LinkDirection::kDownlink, frac);
    const auto dir = detect_direction(trace, 1e6, cfg);
    ASSERT_TRUE(dir.has_value()) << "frac " << frac;
    EXPECT_EQ(*dir, LinkDirection::kDownlink) << "frac " << frac;
  }
}

TEST(Packet, SilentTraceUndetected) {
  PreambleConfig cfg;
  std::vector<double> silence(200, 0.0);
  EXPECT_FALSE(detect_direction(silence, 1e6, cfg).has_value());
  EXPECT_FALSE(detect_direction({}, 1e6, cfg).has_value());
}

TEST(Packet, DownlinkTimeExceedsUplinkPreamble) {
  // The gap makes the downlink preamble longer — a protocol invariant the
  // node relies on.
  PacketConfig cfg;
  const auto up = compute_timing(cfg, LinkDirection::kUplink, 1e6);
  const auto dn = compute_timing(cfg, LinkDirection::kDownlink, 1e6);
  EXPECT_GT(dn.field1_s, up.field1_s - 45e-6);
}

TEST(Packet, TimingRejectsNanSymbolRate) {
  EXPECT_THROW((void)compute_timing(PacketConfig{}, LinkDirection::kUplink,
                                    std::nan("")),
               ContractViolation);
}

TEST(Packet, Field1StartsRejectNonPositiveDuration) {
  PreambleConfig cfg;
  cfg.field1.duration_s = 0.0;
  EXPECT_THROW((void)field1_chirp_starts(cfg, LinkDirection::kUplink), ContractViolation);
}

}  // namespace
}  // namespace milback::core
