// Node tracking across packets — the continuous-tracking layer the paper's
// VR/AR motivation implies. Successive Field-2 localization fixes (range,
// angle) and orientation estimates are fused by alpha-beta filters in
// Cartesian coordinates, smoothing measurement noise and carrying the track
// through occasional missed detections.
#pragma once

#include <cstddef>
#include <optional>

#include "milback/ap/localizer.hpp"
#include "milback/ap/orientation_sensor.hpp"

namespace milback::core {

/// Tracker tuning.
struct TrackerConfig {
  double alpha = 0.5;          ///< Position correction gain.
  double beta = 0.2;           ///< Velocity correction gain.
  double orientation_alpha = 0.5;  ///< Orientation smoothing gain.
  double dt_s = 0.25;          ///< Nominal update period.
  std::size_t max_coast = 4;   ///< Updates the track may coast without a fix
                               ///< before it is declared lost.
  double innovation_gate_m = 1.5;  ///< Fixes farther than this from the
                                   ///< prediction are rejected as outliers
                                   ///< (clutter residues masquerading as the
                                   ///< node) and the track coasts instead.
};

/// Smoothed node state.
struct TrackState {
  double x_m = 0.0;            ///< Cartesian position (AP at origin,
  double y_m = 0.0;            ///<  x along boresight).
  double vx_mps = 0.0;         ///< Velocity estimate.
  double vy_mps = 0.0;
  double orientation_deg = 0.0;  ///< Smoothed orientation.
  std::size_t updates = 0;     ///< Fixes absorbed.
  std::size_t coasting = 0;    ///< Consecutive updates without a fix.

  /// Polar readouts.
  double range_m() const noexcept;
  /// Bearing in the AP frame [deg].
  double azimuth_deg() const noexcept;
  /// Speed magnitude [m/s].
  double speed_mps() const noexcept;
};

/// Alpha-beta tracker over localization + orientation measurements.
class NodeTracker {
 public:
  /// Builds a tracker.
  explicit NodeTracker(const TrackerConfig& config = {});

  /// Absorbs one protocol round. A missed fix (detected == false) — or a fix
  /// farther than the innovation gate from the prediction — coasts the track
  /// on its velocity. Returns the post-update state.
  const TrackState& update(const ap::LocalizationResult& fix,
                           const std::optional<double>& orientation_deg);

  /// Whether the track has initialized and is not lost.
  bool healthy() const noexcept;

  /// Current state.
  const TrackState& state() const noexcept { return state_; }

  /// Config echo.
  const TrackerConfig& config() const noexcept { return config_; }

 private:
  TrackerConfig config_;
  TrackState state_;
  bool initialized_ = false;
};

}  // namespace milback::core
