// Alpha-beta node tracker tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/core/tracker.hpp"
#include "milback/util/rng.hpp"
#include "milback/util/stats.hpp"
#include "milback/util/units.hpp"

namespace milback::core {
namespace {

ap::LocalizationResult fix_at(double range, double angle) {
  ap::LocalizationResult r;
  r.detected = true;
  r.range_m = range;
  r.angle_deg = angle;
  return r;
}

ap::LocalizationResult miss() { return ap::LocalizationResult{}; }

TEST(Tracker, InitializesOnFirstFix) {
  NodeTracker t;
  EXPECT_FALSE(t.healthy());
  const auto& s = t.update(fix_at(3.0, 10.0), 12.0);
  EXPECT_TRUE(t.healthy());
  EXPECT_NEAR(s.range_m(), 3.0, 1e-9);
  EXPECT_NEAR(s.azimuth_deg(), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(s.orientation_deg, 12.0);
  EXPECT_EQ(s.updates, 1u);
}

TEST(Tracker, StationaryNodeConverges) {
  NodeTracker t;
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    t.update(fix_at(3.0 + rng.gaussian(0.0, 0.03), 10.0 + rng.gaussian(0.0, 1.0)), 12.0);
  }
  EXPECT_NEAR(t.state().range_m(), 3.0, 0.05);
  EXPECT_NEAR(t.state().azimuth_deg(), 10.0, 1.0);
  EXPECT_LT(t.state().speed_mps(), 0.2);
}

TEST(Tracker, SmoothsBetterThanRawFixes) {
  // Stationary truth, noisy fixes: the smoothed position error must beat the
  // raw measurement error after warm-up.
  TrackerConfig cfg;
  cfg.alpha = 0.3;
  cfg.beta = 0.05;
  NodeTracker t(cfg);
  Rng rng(2);
  std::vector<double> raw_err, smooth_err;
  for (int i = 0; i < 200; ++i) {
    const double r = 4.0 + rng.gaussian(0.0, 0.05);
    const double a = -5.0 + rng.gaussian(0.0, 1.5);
    const auto& s = t.update(fix_at(r, a), std::nullopt);
    if (i < 20) continue;  // warm-up
    const double mx = r * std::cos(deg2rad(a)), my = r * std::sin(deg2rad(a));
    const double tx = 4.0 * std::cos(deg2rad(-5.0)), ty = 4.0 * std::sin(deg2rad(-5.0));
    raw_err.push_back(std::hypot(mx - tx, my - ty));
    smooth_err.push_back(std::hypot(s.x_m - tx, s.y_m - ty));
  }
  EXPECT_LT(mean(smooth_err), 0.7 * mean(raw_err));
}

TEST(Tracker, TracksConstantVelocity) {
  TrackerConfig cfg;
  cfg.dt_s = 0.1;
  NodeTracker t(cfg);
  // Node moving along x at 0.5 m/s from 2 m.
  for (int i = 0; i < 60; ++i) {
    const double x = 2.0 + 0.5 * 0.1 * i;
    t.update(fix_at(x, 0.0), std::nullopt);
  }
  EXPECT_NEAR(t.state().vx_mps, 0.5, 0.1);
  EXPECT_NEAR(t.state().x_m, 2.0 + 0.5 * 0.1 * 59, 0.1);
}

TEST(Tracker, CoastsThroughMisses) {
  TrackerConfig cfg;
  cfg.dt_s = 0.1;
  NodeTracker t(cfg);
  for (int i = 0; i < 40; ++i) t.update(fix_at(2.0 + 0.05 * i, 0.0), std::nullopt);
  const double x_before = t.state().x_m;
  t.update(miss(), std::nullopt);
  t.update(miss(), std::nullopt);
  EXPECT_TRUE(t.healthy());
  EXPECT_EQ(t.state().coasting, 2u);
  EXPECT_GT(t.state().x_m, x_before);  // kept moving on velocity
}

TEST(Tracker, LostAfterTooManyMisses) {
  TrackerConfig cfg;
  cfg.max_coast = 2;
  NodeTracker t(cfg);
  t.update(fix_at(2.0, 0.0), std::nullopt);
  for (int i = 0; i < 3; ++i) t.update(miss(), std::nullopt);
  EXPECT_FALSE(t.healthy());
  // A new fix revives the track.
  t.update(fix_at(2.5, 0.0), std::nullopt);
  EXPECT_TRUE(t.healthy());
}

TEST(Tracker, MissBeforeInitIsNoop) {
  NodeTracker t;
  t.update(miss(), std::nullopt);
  EXPECT_FALSE(t.healthy());
  EXPECT_EQ(t.state().updates, 0u);
}

TEST(Tracker, OrientationSmoothing) {
  NodeTracker t;
  t.update(fix_at(2.0, 0.0), 10.0);
  t.update(fix_at(2.0, 0.0), 20.0);
  // alpha = 0.5: halfway between.
  EXPECT_NEAR(t.state().orientation_deg, 15.0, 1e-9);
  // Missing orientation leaves the smoothed value untouched.
  t.update(fix_at(2.0, 0.0), std::nullopt);
  EXPECT_NEAR(t.state().orientation_deg, 15.0, 1e-9);
}

}  // namespace
}  // namespace milback::core
