#include "milback/radar/chirp.hpp"

#include <algorithm>

#include "milback/core/contract.hpp"
#include "milback/util/units.hpp"

namespace milback::radar {

double ChirpConfig::slope_hz_per_s() const noexcept {
  const double sweep_time =
      shape == ChirpShape::kTriangular ? duration_s / 2.0 : duration_s;
  return bandwidth_hz / sweep_time;
}

double ChirpConfig::frequency_at(double t) const {
  require_finite(t, "t");
  const double tt = std::clamp(t, 0.0, duration_s);
  if (shape == ChirpShape::kSawtooth) {
    return start_frequency_hz + slope_hz_per_s() * tt;
  }
  const double half = duration_s / 2.0;
  if (tt <= half) return start_frequency_hz + slope_hz_per_s() * tt;
  return end_frequency_hz() - slope_hz_per_s() * (tt - half);
}

double ChirpConfig::range_resolution_m() const noexcept {
  return kSpeedOfLight / (2.0 * bandwidth_hz);
}

ChirpConfig field1_chirp() noexcept {
  return ChirpConfig{ChirpShape::kTriangular, 26.5e9, 3e9, 45e-6};
}

ChirpConfig field2_chirp() noexcept {
  return ChirpConfig{ChirpShape::kSawtooth, 26.5e9, 3e9, 18e-6};
}

}  // namespace milback::radar
