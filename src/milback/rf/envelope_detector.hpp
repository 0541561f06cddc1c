// Envelope (power) detector model — ADL6010 stand-in.
//
// The node's only mmWave-facing active part. A square-law detector converts
// incident RF power to output voltage; a finite video bandwidth (rise/fall
// time) limits the downlink symbol rate to ~36 Mbps in the paper, and the
// output noise density sets the downlink sensitivity floor. Its 50 ohm input
// is matched to the FSA port, which is what makes the "absorptive" node mode
// absorptive (only a small residual return-loss reflection remains).
#pragma once

#include <cstddef>
#include <vector>

#include "milback/util/rng.hpp"

namespace milback::rf {

/// Detector parameters (defaults are ADL6010-class).
struct EnvelopeDetectorConfig {
  double responsivity_v_per_w = 2200.0;  ///< Output volts per watt of input RF.
  double video_bandwidth_hz = 12.6e6;    ///< Output (video) 3 dB bandwidth; at
                                         ///< 2 bits/symbol this caps downlink
                                         ///< at ~36 Mbps as the paper reports.
  double output_noise_v_per_rthz = 0.65e-9;  ///< Output noise density
                                             ///< [V/sqrt(Hz)]; calibrated so the
                                             ///< Fig 14 downlink SINR hits
                                             ///< ~12 dB at 10 m over a 1 GHz
                                             ///< measurement bandwidth.
  double max_output_v = 4.0;             ///< Output clamp.
};

/// Square-law power detector with finite video bandwidth and output noise.
class EnvelopeDetector {
 public:
  /// Constructs with the given parameters (throws std::invalid_argument on
  /// non-positive responsivity or bandwidth).
  explicit EnvelopeDetector(const EnvelopeDetectorConfig& config);

  /// Static (settled) output voltage for an input RF power [W].
  double output_voltage(double input_power_w) const noexcept;

  /// Inverse of output_voltage (for analytic SNR bookkeeping).
  double input_power_for_voltage(double v) const noexcept;

  /// Converts a sampled input-power waveform [W] at rate `fs` to the noisy,
  /// bandwidth-limited output-voltage waveform [V].
  std::vector<double> detect(const std::vector<double>& input_power_w, double fs,
                             Rng& rng) const;

  /// Output noise power [V^2] within measurement bandwidth `bw_hz`.
  double noise_power_v2(double bw_hz) const noexcept;

  /// 10-90% rise time implied by the video bandwidth [s].
  double rise_time_s() const noexcept;

  /// Maximum OOK symbol rate the detector can follow (one rise + one fall
  /// per symbol), used by the rate-limits bench.
  double max_symbol_rate_hz() const noexcept;

  /// Config echo.
  const EnvelopeDetectorConfig& config() const noexcept { return config_; }

 private:
  EnvelopeDetectorConfig config_;
};

}  // namespace milback::rf
