#include "milback/util/units.hpp"

#include "milback/core/contract.hpp"

namespace milback {

double wrap_radians(double rad) {
  require_finite(rad, "rad");
  double wrapped = std::fmod(rad + kPi, 2.0 * kPi);
  if (wrapped < 0.0) wrapped += 2.0 * kPi;
  return wrapped - kPi;
}

}  // namespace milback
