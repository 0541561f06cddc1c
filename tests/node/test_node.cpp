// MilBack node facade tests.
#include <gtest/gtest.h>

#include "milback/node/node.hpp"

namespace milback::node {
namespace {

using antenna::FsaPort;
using rf::SwitchState;

TEST(Node, PortsIndependentlySwitchable) {
  MilBackNode node;
  node.set_port(FsaPort::kA, SwitchState::kReflect);
  node.set_port(FsaPort::kB, SwitchState::kAbsorb);
  EXPECT_EQ(node.port_state(FsaPort::kA), SwitchState::kReflect);
  EXPECT_EQ(node.port_state(FsaPort::kB), SwitchState::kAbsorb);
  node.set_ports(SwitchState::kAbsorb, SwitchState::kReflect);
  EXPECT_EQ(node.port_state(FsaPort::kA), SwitchState::kAbsorb);
  EXPECT_EQ(node.port_state(FsaPort::kB), SwitchState::kReflect);
}

TEST(Node, ReflectionTracksSwitchState) {
  MilBackNode node;
  node.set_port(FsaPort::kA, SwitchState::kReflect);
  const double reflect = node.reflection_power(FsaPort::kA);
  node.set_port(FsaPort::kA, SwitchState::kAbsorb);
  const double absorb = node.reflection_power(FsaPort::kA);
  EXPECT_GT(reflect, 5.0 * absorb);
  // State-explicit overload matches.
  EXPECT_DOUBLE_EQ(node.reflection_power(FsaPort::kA, SwitchState::kReflect), reflect);
}

TEST(Node, ThroughPowerOnlyWhenAbsorbing) {
  MilBackNode node;
  node.set_port(FsaPort::kA, SwitchState::kAbsorb);
  const double absorbing = node.through_power(FsaPort::kA);
  node.set_port(FsaPort::kA, SwitchState::kReflect);
  const double reflecting = node.through_power(FsaPort::kA);
  EXPECT_GT(absorbing, 100.0 * reflecting);
}

TEST(Node, ModeTransitionsSetCanonicalStates) {
  MilBackNode node;
  node.enter_mode(NodeMode::kDownlink);
  EXPECT_EQ(node.port_state(FsaPort::kA), SwitchState::kAbsorb);
  EXPECT_EQ(node.port_state(FsaPort::kB), SwitchState::kAbsorb);
  node.enter_mode(NodeMode::kLocalization);
  EXPECT_EQ(node.port_state(FsaPort::kA), SwitchState::kReflect);
  EXPECT_EQ(node.port_state(FsaPort::kB), SwitchState::kAbsorb);
  EXPECT_EQ(node.mode(), NodeMode::kLocalization);
}

TEST(Node, PowerMatchesPaperHeadlines) {
  MilBackNode node;
  node.enter_mode(NodeMode::kDownlink);
  EXPECT_NEAR(node.power_w() * 1e3, 18.0, 0.5);
  node.enter_mode(NodeMode::kLocalization);
  EXPECT_NEAR(node.power_w() * 1e3, 18.0, 0.5);
  node.enter_mode(NodeMode::kUplink);
  // 40 Mbps -> 20 Msym/s toggling: the paper's 32 mW point.
  EXPECT_NEAR(node.power_w(20e6) * 1e3, 32.0, 1.0);
}

TEST(Node, IdleDrawsMicroWatts) {
  MilBackNode node;
  node.enter_mode(NodeMode::kIdle);
  EXPECT_LT(node.power_w(), 1e-4);
}

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
  node.enter_mode(NodeMode::kUplink);
  const double worst_case_w =
      node.power_w(node.rf_switch(antenna::FsaPort::kA).max_toggle_rate_hz()) +
      node.mcu().config().power_w;
  EXPECT_LT(worst_case_w, 0.1);
}

TEST(Node, ComponentAccess) {
  MilBackNode node;
  EXPECT_GT(node.detector(FsaPort::kB).config().responsivity_v_per_w, 0.0);
}

}  // namespace
}  // namespace milback::node
