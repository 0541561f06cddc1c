// Millimetro baseline (Soltanaghaei et al., MobiCom 2021): mmWave
// retro-reflective tags for accurate, long-range localization. A Van Atta
// array toggled at a tag-specific low rate lets an FMCW radar isolate and
// range the tag; there is no data uplink (beyond the identity beacon) and no
// downlink. Capabilities per Table 1: localization only.
#pragma once

#include "milback/baselines/capability.hpp"

namespace milback::baselines {

/// Millimetro model parameters.
struct MillimetroConfig {
  double chirp_bandwidth_hz = 250e6;  ///< Commodity FMCW radar sweep.
};

/// Localization-only retro-reflective tag.
class Millimetro final : public BackscatterSystem {
 public:
  /// Builds the model.
  explicit Millimetro(const MillimetroConfig& config = {});

  std::string name() const override { return "Millimetro"; }
  Capabilities capabilities() const override;
  std::optional<double> uplink_snr_db(double distance_m,
                                      double bit_rate_bps) const override;
  std::optional<double> energy_per_bit_nj() const override { return std::nullopt; }
  double max_uplink_rate_bps() const override { return 0.0; }

  /// FMCW range resolution [m] of the commodity radar sweep.
  double range_resolution_m() const;

  /// Config echo.
  const MillimetroConfig& config() const noexcept { return config_; }

 private:
  MillimetroConfig config_;
};

}  // namespace milback::baselines
