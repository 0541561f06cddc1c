// Beam-scanner (sector acquisition) tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/ap/beam_scanner.hpp"

namespace milback::ap {
namespace {

// The fine-fix configuration a link's AP would pass (its
// config().ap.localizer).
const LocalizerConfig kFix{};

channel::BackscatterChannel cluttered_channel(std::uint64_t seed = 1) {
  Rng rng(seed);
  return channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(rng));
}

TEST(BeamScanner, SteeredSnrPeaksOnBoresight) {
  const auto chan = cluttered_channel();
  BeamScanner scanner;
  const channel::NodePose pose{3.0, 12.0, 10.0};
  const double on = scanner.steered_snr_db(chan, kFix, pose, 12.0);
  const double off = scanner.steered_snr_db(chan, kFix, pose, -12.0);
  EXPECT_GT(on, off + 20.0);
}

TEST(BeamScanner, FindsSingleNode) {
  const auto chan = cluttered_channel();
  BeamScanner scanner;
  Rng rng(2);
  const std::vector<channel::NodePose> nodes{{2.5, 14.0, 10.0}};
  const auto dets = scanner.scan(chan, kFix, nodes, rng);
  ASSERT_EQ(dets.size(), 1u);
  EXPECT_NEAR(dets[0].steering_deg, 14.0, scanner.config().step_deg);
  ASSERT_TRUE(dets[0].fix.detected);
  EXPECT_NEAR(dets[0].fix.range_m, 2.5, 0.2);
}

TEST(BeamScanner, FindsMultipleSeparatedNodes) {
  const auto chan = cluttered_channel();
  BeamScanner scanner;
  Rng rng(3);
  const std::vector<channel::NodePose> nodes{{2.0, -25.0, 10.0}, {3.0, 20.0, -12.0}};
  const auto dets = scanner.scan(chan, kFix, nodes, rng);
  ASSERT_EQ(dets.size(), 2u);
  EXPECT_NEAR(dets[0].steering_deg, -25.0, 2.0 * scanner.config().step_deg);
  EXPECT_NEAR(dets[1].steering_deg, 20.0, 2.0 * scanner.config().step_deg);
}

TEST(BeamScanner, EmptySectorFindsNothing) {
  const auto chan = cluttered_channel();
  BeamScanner scanner;
  Rng rng(4);
  EXPECT_TRUE(scanner.scan(chan, kFix, {}, rng).empty());
}

TEST(BeamScanner, FarNodeBelowThresholdIgnored) {
  const auto chan = cluttered_channel();
  BeamScanConfig cfg;
  cfg.detection_snr_db = 40.0;  // very strict
  BeamScanner scanner(cfg);
  Rng rng(5);
  const std::vector<channel::NodePose> nodes{{12.0, 0.0, 10.0}};
  EXPECT_TRUE(scanner.scan(chan, kFix, nodes, rng).empty());
}

TEST(BeamScanner, AdjacentHitsMergedToOneDetection) {
  // A strong close node lights up several neighbouring steering positions;
  // the scanner must still report exactly one detection.
  const auto chan = cluttered_channel();
  BeamScanner scanner;
  Rng rng(6);
  const std::vector<channel::NodePose> nodes{{1.0, 0.0, 10.0}};
  const auto dets = scanner.scan(chan, kFix, nodes, rng);
  EXPECT_EQ(dets.size(), 1u);
}

}  // namespace
}  // namespace milback::ap
