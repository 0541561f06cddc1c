#include "milback/node/node.hpp"

namespace milback::node {

MilBackNode::MilBackNode(const NodeConfig& config)
    : config_(config),
      switch_a_(config.rf_switch),
      switch_b_(config.rf_switch),
      detector_a_(config.detector),
      detector_b_(config.detector),
      mcu_(config.mcu) {}

double MilBackNode::max_uplink_bit_rate_bps() const noexcept {
  return 2.0 * switch_a_.max_toggle_rate_hz();
}

double MilBackNode::max_downlink_bit_rate_bps() const noexcept {
  return 2.0 * detector_a_.max_symbol_rate_hz();
}

const rf::EnvelopeDetector& MilBackNode::detector(antenna::FsaPort port) const noexcept {
  return port == antenna::FsaPort::kA ? detector_a_ : detector_b_;
}

const rf::RfSwitch& MilBackNode::rf_switch(antenna::FsaPort port) const noexcept {
  return port == antenna::FsaPort::kA ? switch_a_ : switch_b_;
}

}  // namespace milback::node
