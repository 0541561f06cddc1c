#include "milback/node/uplink_modulator.hpp"

#include "milback/core/contract.hpp"

namespace milback::node {

UplinkSchedule build_uplink_schedule(const std::vector<core::OaqfmSymbol>& symbols) {
  UplinkSchedule s;
  s.port_a.reserve(symbols.size());
  s.port_b.reserve(symbols.size());
  for (const auto sym : symbols) {
    const auto ports = core::uplink_ports(sym);
    s.port_a.push_back(ports.reflect_a ? rf::SwitchState::kReflect
                                       : rf::SwitchState::kAbsorb);
    s.port_b.push_back(ports.reflect_b ? rf::SwitchState::kReflect
                                       : rf::SwitchState::kAbsorb);
  }
  MILBACK_ENSURE(s.port_a.size() == symbols.size() && s.port_b.size() == symbols.size(),
                 "build_uplink_schedule: one state per symbol per port");
  return s;
}

UplinkSchedule build_uplink_schedule_ook(const std::vector<bool>& bits) {
  UplinkSchedule s;
  s.port_a.reserve(bits.size());
  s.port_b.reserve(bits.size());
  for (const bool b : bits) {
    const auto state = b ? rf::SwitchState::kReflect : rf::SwitchState::kAbsorb;
    s.port_a.push_back(state);
    s.port_b.push_back(state);
  }
  MILBACK_ENSURE(s.port_a.size() == bits.size() && s.port_b.size() == bits.size(),
                 "build_uplink_schedule_ook: one state per bit per port");
  return s;
}

}  // namespace milback::node
