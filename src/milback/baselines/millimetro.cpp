#include "milback/baselines/millimetro.hpp"

#include "milback/baselines/van_atta.hpp"
#include "milback/util/units.hpp"

namespace milback::baselines {

Millimetro::Millimetro(const MillimetroConfig& config)
    : config_(config) {}

Capabilities Millimetro::capabilities() const {
  return Capabilities{.uplink = false,
                      .downlink = VanAttaArray::has_signal_port(),
                      .localization = true,
                      .orientation = false};
}

std::optional<double> Millimetro::uplink_snr_db(double, double) const {
  return std::nullopt;  // identity beacon only; no data uplink
}

double Millimetro::range_resolution_m() const {
  return kSpeedOfLight / (2.0 * config_.chirp_bandwidth_hz);
}

}  // namespace milback::baselines
