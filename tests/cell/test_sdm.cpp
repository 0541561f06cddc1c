// Multi-node SDM tests: node registration, discovery, slotting, beam
// isolation and the waveform-level uplink/downlink rounds.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "milback/cell/cell_engine.hpp"
#include "milback/cell/sdm.hpp"
#include "milback/core/contract.hpp"

namespace milback::cell {
namespace {

channel::BackscatterChannel make_channel(std::uint64_t seed = 1) {
  Rng rng(seed);
  return channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(rng));
}

/// A static population as the round functions take it: parallel id and
/// pose columns over one link, slotted at the default SDM separation.
struct Sector {
  core::MilBackLink link{make_channel(), core::LinkConfig{}};
  double min_sep_deg = core::NetworkConfig{}.sdm_min_separation_deg;
  std::vector<std::string> ids;
  std::vector<channel::NodePose> poses;

  void add(std::string id, const channel::NodePose& pose) {
    ids.push_back(std::move(id));
    poses.push_back(pose);
  }
  std::vector<std::vector<std::size_t>> slots() const {
    return sdm_partition(poses, min_sep_deg);
  }
  double isolation_db(std::size_t i, std::size_t j) const {
    return inter_node_isolation_db(link.channel(), poses[i], poses[j]);
  }
  RoundResult uplink(std::size_t bits, Rng& rng) const {
    return run_uplink_round(link, poses, ids, min_sep_deg, bits, rng);
  }
  DownlinkRoundResult downlink(std::size_t bits, Rng& rng) const {
    return run_downlink_round(link, poses, ids, min_sep_deg, bits, rng);
  }
};

TEST(Network, AddAndEnumerate) {
  CellEngine engine(make_channel(), CellConfig{});
  EXPECT_EQ(engine.add_node("a", {.pose = {2.0, -25.0, 10.0}}), 0u);
  EXPECT_EQ(engine.add_node("b", {.pose = {3.0, 0.0, -12.0}}), 1u);
  ASSERT_EQ(engine.node_count(), 2u);
  EXPECT_EQ(engine.node_id(0).view(), "a");
  EXPECT_DOUBLE_EQ(engine.node_pose(1).distance_m, 3.0);
}

TEST(Network, DiscoverLocalizesAll) {
  const Sector net;
  const std::vector<channel::NodePose> poses{{2.0, -20.0, 10.0}, {4.0, 15.0, -15.0}};
  Rng rng(2);
  std::vector<ap::LocalizationResult> loc;
  std::vector<ap::ApOrientationResult> orient;
  for (const auto& pose : poses) {
    loc.push_back(net.link.localize(pose, rng));
    orient.push_back(net.link.sense_orientation_at_ap(pose, rng));
  }
  ASSERT_TRUE(loc[0].detected);
  ASSERT_TRUE(loc[1].detected);
  EXPECT_NEAR(loc[0].range_m, 2.0, 0.2);
  EXPECT_NEAR(loc[1].range_m, 4.0, 0.25);
  EXPECT_TRUE(orient[0].valid);
  EXPECT_NEAR(orient[0].orientation_deg, 10.0, 3.0);
}

TEST(Network, SdmSlotsSeparateCloseNodes) {
  Sector net;
  net.add("a", {2.0, 0.0, 10.0});
  net.add("b", {3.0, 5.0, 10.0});   // too close to a
  net.add("c", {4.0, 30.0, 10.0});  // separable from a
  const auto slots = net.slots();
  ASSERT_EQ(slots.size(), 2u);
  // a and c share a slot; b is alone.
  EXPECT_EQ(slots[0].size(), 2u);
  EXPECT_EQ(slots[1].size(), 1u);
}

TEST(Network, SdmAllSeparableInOneSlot) {
  Sector net;
  net.add("a", {2.0, -30.0, 10.0});
  net.add("b", {2.0, 0.0, 10.0});
  net.add("c", {2.0, 30.0, 10.0});
  EXPECT_EQ(net.slots().size(), 1u);
}

TEST(Network, InterNodeIsolationGrowsWithSeparation) {
  Sector net;
  net.add("a", {2.0, 0.0, 10.0});
  net.add("b", {2.0, 10.0, 10.0});
  net.add("c", {2.0, 45.0, 10.0});
  EXPECT_GT(net.isolation_db(0, 2), net.isolation_db(0, 1));
  EXPECT_GT(net.isolation_db(0, 2), 30.0);
  EXPECT_NEAR(net.isolation_db(0, 0), 0.0, 1e-9);
}

TEST(Network, UplinkRoundServesEveryNode) {
  Sector net;
  net.add("a", {2.0, -25.0, 12.0});
  net.add("b", {2.5, 0.0, -12.0});
  net.add("c", {3.0, 25.0, 12.0});
  Rng rng(3);
  const auto round = net.uplink(400, rng);
  EXPECT_EQ(round.nodes.size(), 3u);
  EXPECT_GE(round.sdm_slots, 1u);
  EXPECT_GT(round.aggregate_goodput_bps, 0.0);
  for (const auto& n : round.nodes) {
    EXPECT_TRUE(n.uplink.carriers_ok) << n.id;
    EXPECT_EQ(n.uplink.bit_errors, 0u) << n.id;
    EXPECT_GT(n.goodput_bps, 0.0) << n.id;
  }
}

TEST(Network, ConcurrentNodesSeeInterferencePenalty) {
  // Two nodes just past the SDM threshold share a slot; their effective SNR
  // must be below the single-node budget SNR.
  Sector net;
  net.add("a", {2.0, -11.0, 12.0});
  net.add("b", {2.0, 11.0, 12.0});
  ASSERT_EQ(net.slots().size(), 1u);
  Rng rng(4);
  const auto round = net.uplink(200, rng);
  ASSERT_EQ(round.nodes.size(), 2u);
  for (const auto& n : round.nodes) {
    EXPECT_LT(n.effective_snr_db, n.uplink.snr_db) << n.id;
  }
}

TEST(Network, DownlinkRoundServesEveryNode) {
  Sector net;
  net.add("a", {2.0, -25.0, 12.0});
  net.add("b", {2.5, 0.0, -12.0});
  net.add("c", {3.0, 25.0, 12.0});
  Rng rng(6);
  const auto round = net.downlink(400, rng);
  EXPECT_EQ(round.nodes.size(), 3u);
  EXPECT_GT(round.aggregate_goodput_bps, 0.0);
  for (const auto& n : round.nodes) {
    EXPECT_TRUE(n.downlink.carriers_ok) << n.id;
    EXPECT_EQ(n.downlink.bit_errors, 0u) << n.id;
    EXPECT_GT(n.goodput_bps, 0.0) << n.id;
    EXPECT_GT(n.effective_sinr_db, 5.0) << n.id;
  }
}

TEST(Network, DownlinkInterferencePenaltyForSharedSlot) {
  // Same node, same metric: effective SINR alone in the sector vs sharing
  // an SDM slot with a neighbour 22 degrees away.
  Sector solo;
  solo.add("a", {2.0, -11.0, 12.0});
  Sector shared;
  shared.add("a", {2.0, -11.0, 12.0});
  shared.add("b", {2.0, 11.0, 12.0});
  ASSERT_EQ(shared.slots().size(), 1u);
  Rng r1(7), r2(7);
  const auto solo_round = solo.downlink(200, r1);
  const auto shared_round = shared.downlink(200, r2);
  ASSERT_EQ(solo_round.nodes.size(), 1u);
  ASSERT_GE(shared_round.nodes.size(), 2u);
  // Node "a" pays a concurrent-beam penalty of several dB.
  EXPECT_LT(shared_round.nodes[0].effective_sinr_db,
            solo_round.nodes[0].effective_sinr_db - 3.0);
}

TEST(Network, DownlinkAggregateScalesWithSeparableNodes) {
  Sector one;
  one.add("a", {2.0, 0.0, 12.0});
  Sector two;
  two.add("a", {2.0, -25.0, 12.0});
  two.add("b", {2.0, 25.0, 12.0});
  Rng r1(8), r2(9);
  const auto round1 = one.downlink(200, r1);
  const auto round2 = two.downlink(200, r2);
  ASSERT_EQ(round2.sdm_slots, 1u);  // separable -> concurrent
  EXPECT_GT(round2.aggregate_goodput_bps, 1.5 * round1.aggregate_goodput_bps);
}

TEST(Network, SdmSlotsPartitionRespectsMinSeparation) {
  // A deliberately awkward bearing set: clusters, duplicates and spread-out
  // nodes. The greedy partition must keep every within-slot pair separated
  // by at least sdm_min_separation_deg.
  Sector net;
  const std::vector<double> bearings{-30.0, -28.0, -10.0, -9.0, 0.0, 0.0,
                                     5.0,   12.0,  19.0,  31.0, 33.0};
  for (std::size_t i = 0; i < bearings.size(); ++i) {
    net.add("n" + std::to_string(i), {2.0 + 0.1 * double(i), bearings[i], 10.0});
  }
  const auto slots = net.slots();
  const double min_sep = core::NetworkConfig{}.sdm_min_separation_deg;
  for (const auto& slot : slots) {
    for (std::size_t a = 0; a < slot.size(); ++a) {
      for (std::size_t b = a + 1; b < slot.size(); ++b) {
        const double sep = std::abs(net.poses[slot[a]].azimuth_deg -
                                    net.poses[slot[b]].azimuth_deg);
        EXPECT_GE(sep, min_sep)
            << "nodes " << slot[a] << " and " << slot[b] << " share a slot";
      }
    }
  }
}

TEST(Network, SdmSlotsCoverEveryNodeExactlyOnce) {
  Sector net;
  for (int i = 0; i < 9; ++i) {
    net.add("n" + std::to_string(i), {2.0, -40.0 + 10.0 * double(i), 10.0});
  }
  std::vector<int> appearances(net.poses.size(), 0);
  for (const auto& slot : net.slots()) {
    for (const std::size_t i : slot) {
      ASSERT_LT(i, appearances.size());
      ++appearances[i];
    }
  }
  for (std::size_t i = 0; i < appearances.size(); ++i) {
    EXPECT_EQ(appearances[i], 1) << "node " << i;
  }
}

TEST(Network, InterNodeIsolationIsSymmetric) {
  Sector net;
  net.add("a", {2.0, -20.0, 10.0});
  net.add("b", {3.0, 5.0, -5.0});
  net.add("c", {4.5, 33.0, 18.0});
  for (std::size_t i = 0; i < net.poses.size(); ++i) {
    for (std::size_t j = 0; j < net.poses.size(); ++j) {
      EXPECT_DOUBLE_EQ(net.isolation_db(i, j), net.isolation_db(j, i))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

TEST(Network, MoreSlotsLowerPerNodeGoodput) {
  Sector crowded;
  crowded.add("a", {2.0, 0.0, 12.0});
  crowded.add("b", {2.0, 4.0, 12.0});  // forces a second slot
  Rng rng(5);
  const auto round = crowded.uplink(200, rng);
  EXPECT_EQ(round.sdm_slots, 2u);
  for (const auto& n : round.nodes) {
    EXPECT_LE(n.goodput_bps, crowded.link.config().uplink_bit_rate_bps / 2.0 + 1.0);
  }
}

TEST(Network, RoundRejectsMismatchedIdColumn) {
  Sector net;
  net.add("a", {2.0, 0.0, 12.0});
  net.ids.push_back("orphan");
  Rng rng(1);
  EXPECT_THROW((void)net.uplink(100, rng), ContractViolation);
  EXPECT_THROW((void)net.downlink(100, rng), ContractViolation);
}

}  // namespace
}  // namespace milback::cell
