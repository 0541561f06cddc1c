// Node power/energy model tests (Section 9.6 anchors).
#include <gtest/gtest.h>

#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/node/node.hpp"
#include "milback/node/power_model.hpp"

namespace milback::node {
namespace {

TEST(PowerModel, StaticModesDraw18mW) {
  const PowerModelConfig cfg;
  EXPECT_NEAR(node_power_w(NodeMode::kDownlink, cfg) * 1e3, 18.0, 0.01);
  EXPECT_NEAR(node_power_w(NodeMode::kOrientationSensing, cfg) * 1e3, 18.0, 0.01);
  // Localization toggles at only 10 kHz: indistinguishable from 18 mW.
  EXPECT_NEAR(node_power_w(NodeMode::kLocalization, cfg, 10e3) * 1e3, 18.0, 0.05);
}

TEST(PowerModel, Uplink40MbpsDraws32mW) {
  const PowerModelConfig cfg;
  // 40 Mbps -> 20 Msym/s worst-case toggle rate per switch.
  EXPECT_NEAR(node_power_w(NodeMode::kUplink, cfg, 20e6) * 1e3, 32.0, 0.5);
}

TEST(PowerModel, UplinkPowerGrowsWithRate) {
  const PowerModelConfig cfg;
  EXPECT_GT(node_power_w(NodeMode::kUplink, cfg, 80e6),
            node_power_w(NodeMode::kUplink, cfg, 20e6));
  // Zero toggling degenerates to the static draw.
  EXPECT_NEAR(node_power_w(NodeMode::kUplink, cfg, 0.0),
              node_power_w(NodeMode::kDownlink, cfg), 1e-12);
}

TEST(PowerModel, IdleIsLeakageOnly) {
  const PowerModelConfig cfg;
  EXPECT_DOUBLE_EQ(node_power_w(NodeMode::kIdle, cfg), cfg.idle_power_w);
  EXPECT_DOUBLE_EQ(node_power_with_mcu_w(NodeMode::kIdle, cfg), cfg.idle_power_w);
}

TEST(PowerModel, McuAddsSeparately) {
  const PowerModelConfig cfg;
  EXPECT_NEAR(node_power_with_mcu_w(NodeMode::kDownlink, cfg) -
                  node_power_w(NodeMode::kDownlink, cfg),
              cfg.mcu_power_w, 1e-12);
}

TEST(PowerModel, EnergyPerBitAnchors) {
  const PowerModelConfig cfg;
  // Paper: 0.5 nJ/bit downlink @ 36 Mbps; 0.8 nJ/bit uplink @ 40 Mbps.
  const double dl = energy_per_bit_j(node_power_w(NodeMode::kDownlink, cfg), 36e6);
  EXPECT_NEAR(dl * 1e9, 0.5, 0.02);
  const double ul = energy_per_bit_j(node_power_w(NodeMode::kUplink, cfg, 20e6), 40e6);
  EXPECT_NEAR(ul * 1e9, 0.8, 0.03);
}

TEST(PowerModel, BeatsMmTagEnergyPerBit) {
  // Paper: "much lower than ... 2.4 nJ/bit" (mmTag).
  const PowerModelConfig cfg;
  const double ul = energy_per_bit_j(node_power_w(NodeMode::kUplink, cfg, 20e6), 40e6);
  EXPECT_LT(ul * 1e9, 2.4 / 2.0);
}

TEST(PowerModel, EnergyPerBitZeroRate) {
  EXPECT_DOUBLE_EQ(energy_per_bit_j(0.018, 0.0), 0.0);
}

TEST(PowerModel, RejectsNanToggleRate) {
  const PowerModelConfig cfg;
  const double nan = std::nan("");
  EXPECT_THROW((void)node_power_w(NodeMode::kUplink, cfg, nan), ContractViolation);
  // The wrappers forward the violation instead of terminating.
  EXPECT_THROW((void)node_power_with_mcu_w(NodeMode::kUplink, cfg, nan),
               ContractViolation);
}

}  // namespace
}  // namespace milback::node
