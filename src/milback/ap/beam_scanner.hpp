// Sector acquisition: the paper's AP mechanically steers its horns, so
// before any node is known the AP must sweep the sector, detect modulated
// returns at each steering, and only then run the fine localization burst.
//
// The scanner evaluates the radar link budget at every steering position —
// nodes off the current boresight are attenuated by the TX and RX horn
// patterns — keeps steering positions whose post-processing SNR clears the
// detection threshold, merges adjacent hits, and refines each cluster with a
// full Localizer run pointed at the best steering. The chirp, the node
// switch and the fine fix all come from the caller's LocalizerConfig — the
// same one the AP's tracking fixes use (a session passes its link's
// config().ap.localizer), so acquisition and tracking cannot disagree.
#pragma once

#include <vector>

#include "milback/ap/localizer.hpp"

namespace milback::ap {

/// Scan parameters.
struct BeamScanConfig {
  double min_azimuth_deg = -40.0;  ///< Sector edge.
  double max_azimuth_deg = 40.0;   ///< Sector edge.
  double step_deg = 6.0;           ///< Steering grid (~ horn beamwidth / 3).
  double detection_snr_db = 15.0;  ///< Post-processing SNR to call a hit.
};

/// One acquired node.
struct ScanDetection {
  double steering_deg = 0.0;       ///< Grid direction of the strongest hit.
  double predicted_snr_db = 0.0;   ///< Budget SNR at that steering.
  LocalizationResult fix{};        ///< Fine localization result.
};

/// Mechanical-scan acquisition engine.
class BeamScanner {
 public:
  /// Builds a scanner.
  explicit BeamScanner(const BeamScanConfig& config = {});

  /// Budget SNR [dB] of a node at `pose` when the horns point at
  /// `steering_deg` (both horn patterns attenuate the off-axis return),
  /// for the chirp and node switch of `localizer`.
  double steered_snr_db(const channel::BackscatterChannel& channel,
                        const LocalizerConfig& localizer,
                        const channel::NodePose& pose, double steering_deg) const;

  /// Sweeps the sector over ground-truth `nodes` (the simulation's world
  /// state), clusters grid hits, and returns one fine fix per cluster, each
  /// from a Localizer built with `localizer`.
  std::vector<ScanDetection> scan(const channel::BackscatterChannel& channel,
                                  const LocalizerConfig& localizer,
                                  const std::vector<channel::NodePose>& nodes,
                                  milback::Rng& rng) const;

  /// Config echo.
  const BeamScanConfig& config() const noexcept { return config_; }

 private:
  BeamScanConfig config_;
};

}  // namespace milback::ap
