#include "milback/core/ber.hpp"

#include <algorithm>
#include <cmath>

#include "milback/util/units.hpp"

namespace milback::core {

double q_function(double x) noexcept { return 0.5 * std::erfc(x / std::sqrt(2.0)); }

double ber_ook_noncoherent(double snr_linear) noexcept {
  if (snr_linear <= 0.0) return 0.5;
  return std::min(0.5 * std::exp(-snr_linear / 2.0), 0.5);
}

double ber_oaqfm(double snr_a_linear, double snr_b_linear) noexcept {
  return 0.5 * (ber_ook_noncoherent(snr_a_linear) + ber_ook_noncoherent(snr_b_linear));
}

double empirical_ber(std::size_t bit_errors, std::size_t total_bits) noexcept {
  if (total_bits == 0) return 0.0;
  return double(bit_errors) / double(total_bits);
}

}  // namespace milback::core
