// The MilBack backscatter node (Section 4, Figure 4 of the paper).
//
// Architecture: a dual-port FSA whose each port feeds an SPDT switch that
// routes to either the FSA ground plane (reflect) or a matched envelope
// detector (absorb, output to the MCU ADC). No phased arrays, phase
// shifters, amplifiers, oscillators or mixers anywhere. The FSA itself is
// the channel's (channel::BackscatterChannel::fsa()): it shapes every trace
// the node sees, so the node estimates against that same pattern.
//
// The node holds no switch state or mode: callers name the switch state on
// every rf::RfSwitch query and the mode on every node_power_w() call.
#pragma once

#include "milback/antenna/fsa.hpp"
#include "milback/node/mcu.hpp"
#include "milback/node/power_model.hpp"
#include "milback/rf/envelope_detector.hpp"
#include "milback/rf/rf_switch.hpp"

namespace milback::node {

/// Full node bill of materials.
struct NodeConfig {
  rf::RfSwitchConfig rf_switch{};
  rf::EnvelopeDetectorConfig detector{};
  McuConfig mcu{};
  PowerModelConfig power{};
  double localization_toggle_hz = 10e3;  ///< Port switching rate in Field 2.
};

/// The backscatter node behind the channel's FSA: two stateless switches +
/// two detectors + MCU.
class MilBackNode {
 public:
  /// Assembles the node from its configuration.
  explicit MilBackNode(const NodeConfig& config = {});

  /// Maximum uplink bit rate [bps] the switches support (2 bits/symbol,
  /// one possible transition per symbol per switch).
  double max_uplink_bit_rate_bps() const noexcept;

  /// Maximum downlink bit rate [bps] the detectors support (2 bits/symbol).
  double max_downlink_bit_rate_bps() const noexcept;

  /// Component access.
  const rf::EnvelopeDetector& detector(antenna::FsaPort port) const noexcept;
  const rf::RfSwitch& rf_switch(antenna::FsaPort port) const noexcept;
  const Mcu& mcu() const noexcept { return mcu_; }
  const NodeConfig& config() const noexcept { return config_; }

 private:
  NodeConfig config_;
  rf::RfSwitch switch_a_;
  rf::RfSwitch switch_b_;
  rf::EnvelopeDetector detector_a_;
  rf::EnvelopeDetector detector_b_;
  Mcu mcu_;
};

}  // namespace milback::node
