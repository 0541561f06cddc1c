#include "milback/node/mcu.hpp"

namespace milback::node {

Mcu::Mcu(const McuConfig& config) : config_(config), adc_(config.adc) {}

std::vector<double> Mcu::sample(const std::vector<double>& v, double input_rate_hz) const {
  return adc_.sample(v, input_rate_hz);
}

}  // namespace milback::node
