// Adaptive session (acquisition / tracking / rate adaptation) tests.
#include <gtest/gtest.h>

#include "milback/core/session.hpp"

namespace milback::core {
namespace {

// One node's session over a link of its own (in a cell, the session
// borrows the cell's link and rate policy the same way).
struct Rig {
  MilBackLink link;
  RateAdaptConfig rate{};
  AdaptiveSession session{};

  SessionStep step(const channel::NodePose& pose, Rng& rng) {
    return session.step(link, rate, pose, rng);
  }
  SessionState state() const { return session.state(); }
};

Rig make_session(std::uint64_t env_seed = 1) {
  Rng rng(env_seed);
  return Rig{MilBackLink(channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(rng)))};
}

TEST(Session, StartsAcquiring) {
  const auto s = make_session();
  EXPECT_EQ(s.state(), SessionState::kAcquiring);
}

TEST(Session, AcquiresVisibleNode) {
  auto s = make_session();
  Rng rng(2);
  const channel::NodePose pose{2.5, 10.0, 12.0};
  const auto step = s.step(pose, rng);
  EXPECT_EQ(step.state, SessionState::kTracking);
  EXPECT_TRUE(step.localized);
  EXPECT_NEAR(step.range_m, 2.5, 0.3);
}

TEST(Session, TracksAndDeliversData) {
  auto s = make_session();
  Rng rng(3);
  const channel::NodePose pose{2.5, 5.0, 12.0};
  s.step(pose, rng);  // acquire
  const auto step = s.step(pose, rng);
  EXPECT_EQ(step.state, SessionState::kTracking);
  EXPECT_GT(step.uplink_rate_bps, 0.0);
  EXPECT_EQ(step.payload_bit_errors, 0u);
  EXPECT_GT(step.delivered_data_bps, 1e6);
}

TEST(Session, PicksFortyMbpsUpClose) {
  auto s = make_session();
  Rng rng(4);
  const channel::NodePose pose{2.0, 0.0, 15.0};
  s.step(pose, rng);
  const auto step = s.step(pose, rng);
  ASSERT_EQ(step.state, SessionState::kTracking);
  EXPECT_DOUBLE_EQ(step.uplink_rate_bps, 40e6);
  EXPECT_FALSE(step.fec_enabled);  // plenty of margin at 2 m
}

TEST(Session, DropsToTenMbpsFarOut) {
  auto s = make_session();
  Rng rng(5);
  const channel::NodePose far{9.0, 0.0, 15.0};
  s.step(far, rng);  // acquire at range
  ASSERT_EQ(s.state(), SessionState::kTracking);
  SessionStep step;
  for (int i = 0; i < 3; ++i) step = s.step(far, rng);
  ASSERT_EQ(step.state, SessionState::kTracking);
  EXPECT_DOUBLE_EQ(step.uplink_rate_bps, 10e6);
}

TEST(Session, EnablesFecAtThinMargin) {
  // At ~10 m the budget SNR sits below the 10 Mbps threshold + margin.
  auto s = make_session();
  Rng rng(6);
  const channel::NodePose edge{10.0, 0.0, 15.0};
  s.step(edge, rng);  // acquire at range
  ASSERT_EQ(s.state(), SessionState::kTracking);
  SessionStep step;
  for (int i = 0; i < 3; ++i) step = s.step(edge, rng);
  ASSERT_EQ(step.state, SessionState::kTracking);
  EXPECT_DOUBLE_EQ(step.uplink_rate_bps, 10e6);
  EXPECT_TRUE(step.fec_enabled);
}

TEST(Session, LosesAndReacquiresThroughBlockage) {
  auto s = make_session();
  Rng rng(7);
  const channel::NodePose pose{2.5, 0.0, 12.0};
  s.step(pose, rng);
  ASSERT_EQ(s.state(), SessionState::kTracking);

  // Inject 30 dB of body blockage: localization (60 dB round trip) dies.
  s.link.channel().config().blockage_loss_db = 30.0;
  SessionState st = s.state();
  for (int i = 0; i < 10 && st == SessionState::kTracking; ++i) {
    st = s.step(pose, rng).state;
  }
  EXPECT_NE(st, SessionState::kTracking);

  // Blockage clears: the session must re-acquire.
  s.link.channel().config().blockage_loss_db = 0.0;
  SessionStep step;
  for (int i = 0; i < 3; ++i) {
    step = s.step(pose, rng);
    if (step.state == SessionState::kTracking) break;
  }
  EXPECT_EQ(step.state, SessionState::kTracking);
}

TEST(Session, AcquisitionFailsForOutOfSectorNode) {
  // Far outside the +-40 deg scan sector AND far enough that horn sidelobes
  // cannot carry the detection (a 3 m node would still be caught through
  // sidelobes — narrow beams are directional, not opaque).
  auto s = make_session();
  Rng rng(8);
  const channel::NodePose pose{8.0, 65.0, 12.0};
  const auto step = s.step(pose, rng);
  EXPECT_EQ(step.state, SessionState::kAcquiring);
  EXPECT_FALSE(step.localized);
}

TEST(Session, DeterministicGivenSeed) {
  auto s1 = make_session();
  auto s2 = make_session();
  Rng r1(9), r2(9);
  const channel::NodePose pose{2.5, 5.0, 12.0};
  const auto a1 = s1.step(pose, r1);
  const auto a2 = s2.step(pose, r2);
  EXPECT_EQ(a1.state, a2.state);
  const auto b1 = s1.step(pose, r1);
  const auto b2 = s2.step(pose, r2);
  EXPECT_DOUBLE_EQ(b1.range_m, b2.range_m);
  EXPECT_EQ(b1.payload_bit_errors, b2.payload_bit_errors);
}

}  // namespace
}  // namespace milback::core
