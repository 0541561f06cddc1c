// Single-pole low-pass IIR: the node's envelope-detector rise/fall
// behaviour.
#pragma once

namespace milback::dsp {

/// Single-pole low-pass IIR: models RC-limited rise/fall time of envelope
/// detectors and switches. `tau_samples` is the time constant in samples.
class OnePoleLowpass {
 public:
  /// tau_samples <= 0 makes the filter a pass-through.
  explicit OnePoleLowpass(double tau_samples) noexcept;

  /// Processes one sample.
  double step(double x) noexcept;

 private:
  double alpha_ = 1.0;
  double y_ = 0.0;
};

}  // namespace milback::dsp
