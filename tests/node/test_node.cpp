// MilBack node tests: rate limits, structure and component access.
#include <gtest/gtest.h>

#include "milback/node/node.hpp"

namespace milback::node {
namespace {

using antenna::FsaPort;

TEST(Node, RateLimitsMatchPaper) {
  MilBackNode node;
  EXPECT_NEAR(node.max_uplink_bit_rate_bps() / 1e6, 160.0, 10.0);
  EXPECT_NEAR(node.max_downlink_bit_rate_bps() / 1e6, 36.0, 1.5);
}

TEST(Node, NoActiveMmWaveComponents) {
  // Structural claim of the paper: the node is two switches + two detectors
  // + MCU on a passive antenna. Total active power must stay far below any
  // mmWave radio (which burns watts).
  MilBackNode node;
  const double worst_case_w = node_power_with_mcu_w(
      NodeMode::kUplink, node.config().power,
      node.rf_switch(FsaPort::kA).max_toggle_rate_hz());
  EXPECT_LT(worst_case_w, 0.1);
}

TEST(Node, ComponentAccess) {
  MilBackNode node;
  EXPECT_GT(node.detector(FsaPort::kB).config().responsivity_v_per_w, 0.0);
}

}  // namespace
}  // namespace milback::node
