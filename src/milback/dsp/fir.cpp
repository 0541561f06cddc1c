#include "milback/dsp/fir.hpp"

#include <cmath>

#include "milback/core/contract.hpp"

namespace milback::dsp {

OnePoleLowpass::OnePoleLowpass(double tau_samples) noexcept {
  alpha_ = tau_samples > 0.0 ? 1.0 - std::exp(-1.0 / tau_samples) : 1.0;
}

double OnePoleLowpass::step(double x) noexcept {
  y_ += alpha_ * (x - y_);
  return y_;
}

std::vector<double> OnePoleLowpass::process(const std::vector<double>& x) {
  std::vector<double> y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = step(x[i]);
  MILBACK_ENSURE(y.size() == x.size(), "process: elementwise shape preserved");
  return y;
}

}  // namespace milback::dsp
