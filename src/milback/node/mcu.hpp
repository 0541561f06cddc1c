// Node micro-controller model (TI MSP430FR6989 stand-in): a 1 MS/s 12-bit
// ADC that samples the envelope-detector outputs, plus the MCU power draw
// the paper reports separately (5.76 mW).
#pragma once

#include <vector>

#include "milback/rf/adc.hpp"

namespace milback::node {

/// MCU parameters.
struct McuConfig {
  rf::AdcConfig adc{.sample_rate_hz = 1e6, .bits = 12, .full_scale_v = 3.3,
                    .bipolar = false};
  double power_w = 5.76e-3;  ///< Active power (reported separately in §9.6).
};

/// The node's processor: ADC sampling plus simple threshold utilities.
class Mcu {
 public:
  /// Builds the MCU with its ADC.
  explicit Mcu(const McuConfig& config = {});

  /// Samples a detector-output waveform given at `input_rate_hz` down to the
  /// MCU ADC rate with quantization.
  std::vector<double> sample(const std::vector<double>& v, double input_rate_hz) const;

  /// ADC in use.
  const rf::Adc& adc() const noexcept { return adc_; }

  /// Config echo.
  const McuConfig& config() const noexcept { return config_; }

 private:
  McuConfig config_;
  rf::Adc adc_;
};

}  // namespace milback::node
