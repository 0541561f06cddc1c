// AP-side orientation sensor tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/ap/orientation_sensor.hpp"
#include "milback/util/stats.hpp"

namespace milback::ap {
namespace {

channel::BackscatterChannel cluttered_channel(std::uint64_t seed = 1) {
  Rng rng(seed);
  return channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(rng));
}

double mean_error_at(double orientation, std::uint64_t base_seed, int trials = 15) {
  const auto chan = cluttered_channel();
  ApOrientationSensor sensor;
  std::vector<double> errs;
  for (int t = 0; t < trials; ++t) {
    auto rng = Rng::stream(base_seed, t);
    const channel::NodePose pose{2.0, 0.0, orientation};
    const auto r = sensor.estimate(chan, pose, rng);
    if (r.valid) errs.push_back(std::abs(r.orientation_deg - orientation));
  }
  EXPECT_GE(errs.size(), std::size_t(trials) - 2u);
  return milback::mean(errs);
}

TEST(ApOrientation, AccurateAwayFromMirrorRegion) {
  // Paper Fig 13b: mean error < 1.5 deg for most orientations.
  for (double o : {-20.0, -10.0, 10.0, 20.0}) {
    EXPECT_LT(mean_error_at(o, 42), 1.6) << "orientation " << o;
  }
}

TEST(ApOrientation, MirrorCollisionDegradesEstimates) {
  // Paper Fig 13b: errors grow in the -6..-2 degree region but the system
  // still works (< ~4 deg mean in our calibration).
  const double bump = mean_error_at(-4.0, 43, 25);
  const double baseline = mean_error_at(15.0, 43, 25);
  EXPECT_GT(bump, baseline);
}

TEST(ApOrientation, PeakFrequencyConsistentWithScanLaw) {
  const auto chan = cluttered_channel();
  ApOrientationSensor sensor;
  Rng rng(44);
  const channel::NodePose pose{2.0, 0.0, 18.0};
  const auto r = sensor.estimate(chan, pose, rng);
  ASSERT_TRUE(r.valid);
  const auto back = chan.fsa().beam_angle_deg(antenna::FsaPort::kA, r.f_peak_hz);
  ASSERT_TRUE(back.has_value());
  EXPECT_NEAR(*back, r.orientation_deg, 1e-9);
}

TEST(ApOrientation, WorksAcrossDistance) {
  const auto chan = cluttered_channel();
  ApOrientationSensor sensor;
  for (double d : {1.0, 3.0, 5.0}) {
    auto rng = Rng::stream(45, std::uint64_t(d));
    const channel::NodePose pose{d, 0.0, 12.0};
    const auto r = sensor.estimate(chan, pose, rng);
    ASSERT_TRUE(r.valid) << "distance " << d;
    EXPECT_NEAR(r.orientation_deg, 12.0, 3.0) << "distance " << d;
  }
}

TEST(ApOrientation, DeterministicGivenSeed) {
  const auto chan = cluttered_channel();
  ApOrientationSensor sensor;
  const channel::NodePose pose{2.0, 0.0, 8.0};
  Rng r1(77), r2(77);
  const auto a = sensor.estimate(chan, pose, r1);
  const auto b = sensor.estimate(chan, pose, r2);
  ASSERT_EQ(a.valid, b.valid);
  EXPECT_DOUBLE_EQ(a.orientation_deg, b.orientation_deg);
}

}  // namespace
}  // namespace milback::ap
