// RF switch model tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/rf/rf_switch.hpp"
#include "milback/util/units.hpp"

namespace milback::rf {
namespace {

TEST(RfSwitch, RejectsBadTransitionTime) {
  RfSwitchConfig cfg;
  cfg.transition_time_s = 0.0;
  EXPECT_THROW(RfSwitch{cfg}, std::invalid_argument);
}

TEST(RfSwitch, ReflectionContrast) {
  RfSwitch sw{RfSwitchConfig{}};
  const double reflect = sw.reflection_power(SwitchState::kReflect);
  const double absorb = sw.reflection_power(SwitchState::kAbsorb);
  // Reflect: ~ -2*insertion loss; absorb: detector return loss. The contrast
  // is what carries uplink data — it must be substantial.
  EXPECT_NEAR(lin2db(reflect), -2.0 * sw.config().insertion_loss_db, 1e-9);
  EXPECT_NEAR(lin2db(absorb), -sw.config().detector_return_loss_db, 1e-9);
  EXPECT_GT(reflect / absorb, 5.0);
}

TEST(RfSwitch, ThroughPower) {
  RfSwitch sw{RfSwitchConfig{}};
  // Absorb: signal reaches the detector minus insertion loss.
  EXPECT_NEAR(lin2db(sw.through_power(SwitchState::kAbsorb)),
              -sw.config().insertion_loss_db, 1e-9);
  // Reflect: only isolation leakage reaches the detector.
  EXPECT_NEAR(lin2db(sw.through_power(SwitchState::kReflect)),
              -sw.config().isolation_db, 1e-9);
}

TEST(RfSwitch, MaxToggleRateSupports160MbpsUplink) {
  // Paper: "the maximum uplink data rate that the node can operate is
  // 160 Mbps. This rate is limited by switching speed."
  RfSwitch sw{RfSwitchConfig{}};
  const double max_bit_rate = 2.0 * sw.max_toggle_rate_hz();  // 2 bits/symbol
  EXPECT_NEAR(max_bit_rate / 1e6, 160.0, 10.0);
}

TEST(RfSwitch, ReflectionWaveformSettles) {
  RfSwitch sw{RfSwitchConfig{}};
  const double fs = 1e9;
  const std::size_t per_state = 100;  // 100 ns per state >> 6 ns transition
  const auto w = sw.reflection_waveform(
      {SwitchState::kAbsorb, SwitchState::kReflect, SwitchState::kAbsorb}, per_state, fs);
  ASSERT_EQ(w.size(), 3 * per_state);
  const double reflect = sw.reflection_power(SwitchState::kReflect);
  const double absorb = sw.reflection_power(SwitchState::kAbsorb);
  EXPECT_NEAR(w[per_state - 1], absorb, absorb * 0.05);
  EXPECT_NEAR(w[2 * per_state - 1], reflect, reflect * 0.05);
  EXPECT_NEAR(w.back(), absorb, absorb * 0.05);
  // Mid-transition sample sits between the two levels.
  const double mid = w[per_state + 2];
  EXPECT_GT(mid, absorb);
  EXPECT_LT(mid, reflect);
}

TEST(RfSwitch, ReflectionWaveformTooFastNeverSettles) {
  RfSwitch sw{RfSwitchConfig{}};
  const double fs = 1e9;
  // 2 ns per state << 6 ns transition: contrast collapses.
  std::vector<SwitchState> states;
  for (int i = 0; i < 50; ++i) {
    states.push_back(i % 2 ? SwitchState::kReflect : SwitchState::kAbsorb);
  }
  const auto w = sw.reflection_waveform(states, 2, fs);
  double mn = 1e9, mx = -1e9;
  for (std::size_t i = w.size() / 2; i < w.size(); ++i) {
    mn = std::min(mn, w[i]);
    mx = std::max(mx, w[i]);
  }
  const double full_contrast = sw.reflection_power(SwitchState::kReflect) -
                               sw.reflection_power(SwitchState::kAbsorb);
  EXPECT_LT(mx - mn, 0.55 * full_contrast);
}

TEST(RfSwitch, ReflectionWaveformRejectsZeroSamples) {
  RfSwitch sw{RfSwitchConfig{}};
  EXPECT_THROW(sw.reflection_waveform({SwitchState::kAbsorb}, 0, 1e9),
               std::invalid_argument);
}

}  // namespace
}  // namespace milback::rf
