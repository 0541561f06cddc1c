// Single-pole low-pass IIR: the node's envelope-detector rise/fall
// behaviour.
#pragma once

#include <vector>

namespace milback::dsp {

/// Single-pole low-pass IIR: models RC-limited rise/fall time of envelope
/// detectors and switches. `tau_samples` is the time constant in samples.
class OnePoleLowpass {
 public:
  /// tau_samples <= 0 makes the filter a pass-through.
  explicit OnePoleLowpass(double tau_samples) noexcept;

  /// Processes one sample.
  double step(double x) noexcept;

  /// Filters a whole vector (stateful across the call).
  std::vector<double> process(const std::vector<double>& x);

  /// Resets internal state to `y0`.
  void reset(double y0 = 0.0) noexcept { y_ = y0; }

  /// Smoothing coefficient alpha in y += alpha*(x-y).
  double alpha() const noexcept { return alpha_; }

 private:
  double alpha_ = 1.0;
  double y_ = 0.0;
};

}  // namespace milback::dsp
