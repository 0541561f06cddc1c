// Randomized smoke sweep: across many random environments and poses, every
// protocol operation must terminate with finite, sane outputs — no NaNs, no
// crashes, no out-of-physics values — even when the link is unusable.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/core/link.hpp"

namespace milback::core {
namespace {

class RandomWorlds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomWorlds, FullPacketProducesFiniteOutputs) {
  Rng master(GetParam());
  auto env_rng = Rng::stream(GetParam(), 1);
  const MilBackLink link(channel::BackscatterChannel::make_default(
                             channel::Environment::indoor_office(
                                 env_rng, std::size_t(master.uniform_int(3, 12)))),
                         LinkConfig{});

  // Random pose, intentionally including hopeless ones (far, edge-of-scan,
  // even out-of-scan orientations).
  const channel::NodePose pose{master.uniform(0.5, 14.0), master.uniform(-30.0, 30.0),
                               master.uniform(-40.0, 40.0)};
  auto rng = Rng::stream(GetParam(), 2);
  auto data = Rng::stream(GetParam(), 3);
  const auto bits = data.bits(256);

  const auto dir = master.bernoulli(0.5) ? LinkDirection::kUplink
                                         : LinkDirection::kDownlink;
  const auto r = link.run_packet(pose, dir, bits, rng);

  // Structural sanity regardless of success.
  EXPECT_TRUE(std::isfinite(r.node_energy_j));
  EXPECT_GE(r.node_energy_j, 0.0);
  EXPECT_TRUE(std::isfinite(r.timing.total_s));
  EXPECT_GT(r.timing.total_s, 0.0);
  if (r.localization.detected) {
    EXPECT_TRUE(std::isfinite(r.localization.range_m));
    EXPECT_GE(r.localization.range_m, 0.0);
    EXPECT_LE(r.localization.range_m, 25.0);
    EXPECT_TRUE(std::isfinite(r.localization.angle_deg));
  }
  if (r.node_orientation) {
    EXPECT_TRUE(std::isfinite(r.node_orientation->orientation_deg));
    EXPECT_LE(std::abs(r.node_orientation->orientation_deg), 90.0);
  }
  if (r.downlink) {
    EXPECT_LE(r.downlink->ber, 1.0);
    EXPECT_TRUE(std::isfinite(r.downlink->sinr_db));
    EXPECT_LE(r.downlink->bit_errors, r.downlink->bits_sent);
  }
  if (r.uplink) {
    EXPECT_LE(r.uplink->ber, 1.0);
    EXPECT_TRUE(std::isfinite(r.uplink->snr_db));
    EXPECT_LE(r.uplink->bit_errors, r.uplink->bits_sent);
  }
}

TEST_P(RandomWorlds, BudgetsFiniteEverywhere) {
  Rng master(GetParam() + 1000);
  auto env_rng = Rng::stream(GetParam() + 1000, 1);
  const auto chan = channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(env_rng));
  rf::EnvelopeDetector det{rf::EnvelopeDetectorConfig{}};
  rf::RfSwitch sw{rf::RfSwitchConfig{}};
  for (int i = 0; i < 10; ++i) {
    const channel::NodePose pose{master.uniform(0.1, 20.0), master.uniform(-45.0, 45.0),
                                 master.uniform(-45.0, 45.0)};
    const auto pair = chan.fsa().carrier_pair_for_angle(pose.orientation_deg);
    if (!pair) continue;  // out of scan range is a legal outcome
    const auto dl = channel::compute_downlink_budget(chan, pose, antenna::FsaPort::kA,
                                                     pair->first, pair->second, det, sw,
                                                     1e9);
    EXPECT_TRUE(std::isfinite(dl.sinr_db));
    EXPECT_TRUE(std::isfinite(dl.snr_db));
    EXPECT_TRUE(std::isfinite(dl.sir_db));
    const auto ul = channel::compute_uplink_budget(chan, pose, antenna::FsaPort::kB,
                                                   pair->second, sw, 10e6);
    EXPECT_TRUE(std::isfinite(ul.snr_db));
    EXPECT_LT(ul.snr_db, 60.0);  // nothing super-physical
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomWorlds,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707, 808, 909,
                                           1010, 1111, 1212));

}  // namespace
}  // namespace milback::core
