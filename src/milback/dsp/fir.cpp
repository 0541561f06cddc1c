#include "milback/dsp/fir.hpp"

#include <cmath>

namespace milback::dsp {

OnePoleLowpass::OnePoleLowpass(double tau_samples) noexcept {
  alpha_ = tau_samples > 0.0 ? 1.0 - std::exp(-1.0 / tau_samples) : 1.0;
}

double OnePoleLowpass::step(double x) noexcept {
  y_ += alpha_ * (x - y_);
  return y_;
}

}  // namespace milback::dsp
