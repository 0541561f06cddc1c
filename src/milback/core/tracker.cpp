#include "milback/core/tracker.hpp"

#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/util/units.hpp"

namespace milback::core {

double TrackState::range_m() const noexcept { return std::hypot(x_m, y_m); }

double TrackState::azimuth_deg() const noexcept {
  return rad2deg(std::atan2(y_m, x_m));
}

double TrackState::speed_mps() const noexcept { return std::hypot(vx_mps, vy_mps); }

NodeTracker::NodeTracker(const TrackerConfig& config) : config_(config) {}

const TrackState& NodeTracker::update(const ap::LocalizationResult& fix,
                                      const std::optional<double>& orientation_deg) {
  MILBACK_REQUIRE(!fix.detected || (std::isfinite(fix.range_m) && std::isfinite(fix.angle_deg)),
                  "NodeTracker::update: a detected fix must carry finite range/angle");
  const double dt = config_.dt_s;
  const double mx = fix.range_m * std::cos(deg2rad(fix.angle_deg));
  const double my = fix.range_m * std::sin(deg2rad(fix.angle_deg));

  // Innovation gating: a "fix" that lands far from the prediction is a
  // clutter residue, not the node.
  bool usable = fix.detected;
  if (usable && initialized_) {
    const double px = state_.x_m + state_.vx_mps * dt;
    const double py = state_.y_m + state_.vy_mps * dt;
    if (std::hypot(mx - px, my - py) > config_.innovation_gate_m) usable = false;
  }

  if (!usable) {
    if (initialized_) {
      // Coast on velocity.
      state_.x_m += state_.vx_mps * dt;
      state_.y_m += state_.vy_mps * dt;
      ++state_.coasting;
    }
    return state_;
  }

  if (!initialized_) {
    state_ = TrackState{};
    state_.x_m = mx;
    state_.y_m = my;
    if (orientation_deg) state_.orientation_deg = *orientation_deg;
    state_.updates = 1;
    initialized_ = true;
    return state_;
  }

  // Predict.
  const double px = state_.x_m + state_.vx_mps * dt;
  const double py = state_.y_m + state_.vy_mps * dt;
  // Correct (alpha-beta).
  const double rx = mx - px;
  const double ry = my - py;
  state_.x_m = px + config_.alpha * rx;
  state_.y_m = py + config_.alpha * ry;
  state_.vx_mps += config_.beta * rx / dt;
  state_.vy_mps += config_.beta * ry / dt;
  if (orientation_deg) {
    state_.orientation_deg +=
        config_.orientation_alpha * (*orientation_deg - state_.orientation_deg);
  }
  state_.coasting = 0;
  ++state_.updates;
  return state_;
}

bool NodeTracker::healthy() const noexcept {
  return initialized_ && state_.coasting <= config_.max_coast;
}

}  // namespace milback::core
