// SPDT RF switch model — ADRF5020 stand-in.
//
// Each FSA port's switch selects between the ground plane (reflective beam)
// and the envelope detector (absorptive beam). The finite transition time of
// the switch is what caps the uplink at ~160 Mbps in the paper; insertion
// loss and isolation shape the achievable reflection contrast (and therefore
// uplink SNR). The model is stateless: every query takes the SwitchState
// (or a state sequence) it is asked about.
#pragma once

#include <cstddef>
#include <vector>

namespace milback::rf {

/// Where a switch routes its FSA port.
enum class SwitchState {
  kReflect,  ///< Port shorted to the FSA ground plane: beam reflects.
  kAbsorb,   ///< Port terminated in the matched envelope detector: beam absorbs.
};

/// Switch parameters (defaults are ADRF5020-class).
struct RfSwitchConfig {
  double insertion_loss_db = 2.0;   ///< Loss through the switch path at 28 GHz.
  double isolation_db = 40.0;       ///< Off-path isolation.
  double transition_time_s = 6e-9;  ///< 10-90% settling between states.
  double detector_return_loss_db = 15.0;  ///< Residual reflection in absorb state.
};

/// Stateless SPDT switch model: loss and finite transition. Callers pass
/// the routing state to every query.
class RfSwitch {
 public:
  /// Validates the configuration.
  explicit RfSwitch(const RfSwitchConfig& config);

  /// Power reflection coefficient |Gamma|^2 of the FSA port for a given
  /// state: ~1 (minus 2x insertion loss) when reflecting, the detector's
  /// residual return loss when absorbing.
  double reflection_power(SwitchState s) const noexcept;

  /// Fraction of incident power delivered to the detector in a state
  /// (non-zero only when absorbing, reduced by insertion loss).
  double through_power(SwitchState s) const noexcept;

  /// Maximum toggle rate [Hz] such that the settled portion of each state
  /// still dominates (transition occupies <= half the dwell).
  double max_toggle_rate_hz() const noexcept;

  /// Builds the per-sample reflection-power waveform for a state sequence:
  /// each state lasts `samples_per_state` samples at rate `fs`, with an
  /// exponential settle of `transition_time_s` between states.
  std::vector<double> reflection_waveform(const std::vector<SwitchState>& states,
                                          std::size_t samples_per_state,
                                          double fs) const;

  /// Config echo.
  const RfSwitchConfig& config() const noexcept { return config_; }

 private:
  RfSwitchConfig config_;
};

}  // namespace milback::rf
