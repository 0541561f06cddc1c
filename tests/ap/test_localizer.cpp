// Localizer pipeline tests (waveform level).
#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "milback/ap/localizer.hpp"
#include "milback/channel/propagation.hpp"
#include "milback/util/stats.hpp"
#include "milback/util/units.hpp"

namespace milback::ap {
namespace {

channel::BackscatterChannel cluttered_channel(std::uint64_t seed = 1) {
  Rng rng(seed);
  return channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(rng));
}

TEST(Localizer, DetectsNodeInAnechoicChannel) {
  const auto chan =
      channel::BackscatterChannel::make_default(channel::Environment::anechoic());
  Localizer loc;
  Rng rng(2);
  const channel::NodePose pose{3.0, 0.0, 10.0};
  const auto r = loc.localize(chan, pose, rng);
  ASSERT_TRUE(r.detected);
  EXPECT_NEAR(r.range_m, 3.0, 0.15);
}

TEST(Localizer, DetectsNodeThroughClutter) {
  const auto chan = cluttered_channel();
  Localizer loc;
  Rng rng(3);
  const channel::NodePose pose{4.0, 5.0, 10.0};
  const auto r = loc.localize(chan, pose, rng);
  ASSERT_TRUE(r.detected);
  EXPECT_NEAR(r.range_m, 4.0, 0.2);
  EXPECT_GT(r.detection_snr_db, 6.0);
}

TEST(Localizer, AngleWithinPaperEnvelope) {
  const auto chan = cluttered_channel();
  Localizer loc;
  std::vector<double> errs;
  for (int t = 0; t < 30; ++t) {
    auto rng = Rng::stream(4, t);
    const double az = -20.0 + 4.0 * (t % 11);
    const channel::NodePose pose{2.0, az, 10.0};
    const auto r = loc.localize(chan, pose, rng);
    ASSERT_TRUE(r.detected);
    ASSERT_TRUE(r.aoa_offset_deg.has_value());
    errs.push_back(std::abs(r.angle_deg - az));
  }
  // Paper Fig 12b: median 1.1 deg, 90th 2.5 deg. Allow simulation slack.
  EXPECT_LT(milback::median(errs), 2.2);
  EXPECT_LT(milback::percentile(errs, 90), 5.0);
}

TEST(Localizer, RangeErrorGrowsWithDistance) {
  const auto chan = cluttered_channel();
  Localizer loc;
  auto mean_err = [&](double d) {
    std::vector<double> errs;
    for (int t = 0; t < 15; ++t) {
      auto rng = Rng::stream(5, std::uint64_t(d), t);
      const channel::NodePose pose{d, 0.0, 10.0};
      const auto r = loc.localize(chan, pose, rng);
      if (r.detected) errs.push_back(std::abs(r.range_m - d));
    }
    EXPECT_GE(errs.size(), 12u) << "too many misses at " << d;
    return milback::mean(errs);
  };
  const double near_err = mean_err(1.0);
  const double far_err = mean_err(8.0);
  EXPECT_GT(far_err, near_err);
  // Paper Fig 12a bounds: < 5 cm at 5 m, < 12 cm at 8 m (mean).
  EXPECT_LT(mean_err(5.0), 0.07);
  EXPECT_LT(far_err, 0.15);
}

TEST(Localizer, SteeringErrorReflectedInOutput) {
  const auto chan = cluttered_channel();
  Localizer loc;
  Rng rng(6);
  const channel::NodePose pose{2.0, 10.0, 10.0};
  const auto r = loc.localize(chan, pose, rng);
  ASSERT_TRUE(r.detected);
  // The steered azimuth should be near (but generally not equal to) truth.
  EXPECT_NEAR(r.steered_azimuth_deg, 10.0, 4.0);
  EXPECT_NEAR(r.angle_deg, 10.0, 4.0);
}

TEST(Localizer, BurstShapeMatchesConfig) {
  const auto chan = cluttered_channel();
  LocalizerConfig cfg;
  Localizer loc{cfg};
  Rng rng(7);
  std::vector<rf::SwitchState> states(cfg.n_chirps, rf::SwitchState::kReflect);
  const auto burst = loc.synthesize_burst(chan, {2.0, 0.0, 10.0}, states, 1.0, 0.0, rng);
  EXPECT_EQ(burst.rx0.size(), cfg.n_chirps);
  EXPECT_EQ(burst.rx1.size(), cfg.n_chirps);
  const auto n = radar::samples_per_chirp(cfg.chirp, cfg.beat_sample_rate_hz);
  EXPECT_EQ(burst.rx0.front().size(), n);
}

TEST(Localizer, UnmodulatedNodeInvisible) {
  // If the node never toggles, background subtraction removes it: detection
  // should fail (or find something unrelated far from the node).
  const auto chan =
      channel::BackscatterChannel::make_default(channel::Environment::anechoic());
  LocalizerConfig cfg;
  Localizer loc{cfg};
  Rng rng(8);
  const channel::NodePose pose{3.0, 0.0, 10.0};
  std::vector<rf::SwitchState> constant(cfg.n_chirps, rf::SwitchState::kReflect);
  const auto burst = loc.synthesize_burst(chan, pose, constant, 1.0, 0.0, rng);
  std::vector<radar::RangeSpectrum> spectra;
  for (const auto& beat : burst.rx0) {
    spectra.push_back(radar::range_fft(beat, cfg.beat_sample_rate_hz, cfg.chirp, cfg.fft));
  }
  const auto sub = radar::background_subtract(spectra);
  const auto det = radar::estimate_range(sub, spectra.front(), cfg.range);
  if (det) {
    EXPECT_GT(std::abs(det->range_m - 3.0), 0.5)
        << "static node should not survive subtraction";
  }
}

TEST(Localizer, DeterministicGivenSeed) {
  const auto chan = cluttered_channel();
  Localizer loc;
  const channel::NodePose pose{3.0, 0.0, 10.0};
  Rng r1(99), r2(99);
  const auto a = loc.localize(chan, pose, r1);
  const auto b = loc.localize(chan, pose, r2);
  ASSERT_EQ(a.detected, b.detected);
  EXPECT_DOUBLE_EQ(a.range_m, b.range_m);
  EXPECT_DOUBLE_EQ(a.angle_deg, b.angle_deg);
}

// localize() rebuilt from the public stages (synthesize_burst -> range_fft
// -> background_subtract -> estimate_range -> AoA, plus the NLoS second
// pass), drawing from `rng` in the same order.
LocalizationResult composed_localize(const Localizer& loc,
                                     const channel::BackscatterChannel& ch,
                                     const channel::NodePose& pose, Rng& rng) {
  const auto& cfg = loc.config();
  LocalizationResult result;
  result.steered_azimuth_deg =
      pose.azimuth_deg + rng.gaussian(0.0, ch.config().steering_error_sigma_deg);
  const double slope_scale = 1.0 + rng.gaussian(0.0, cfg.slope_error_rms);
  std::vector<rf::SwitchState> states(cfg.n_chirps);
  for (std::size_t i = 0; i < states.size(); ++i) {
    states[i] = (i % 2 == 0) ? rf::SwitchState::kReflect : rf::SwitchState::kAbsorb;
  }
  struct Pass {
    bool detected = false;
    double range_m = 0.0, snr_db = 0.0, angle_deg = 0.0;
    std::optional<double> aoa_offset_deg;
  };
  const auto run_pass = [&](double steer_deg, bool steer_amplitudes) {
    Pass pass;
    const auto burst = loc.synthesize_burst(ch, pose, states, slope_scale, steer_deg, rng,
                                            steer_amplitudes);
    std::vector<radar::RangeSpectrum> spectra0, spectra1;
    for (std::size_t i = 0; i < burst.rx0.size(); ++i) {
      spectra0.push_back(
          radar::range_fft(burst.rx0[i], cfg.beat_sample_rate_hz, cfg.chirp, cfg.fft));
      spectra1.push_back(
          radar::range_fft(burst.rx1[i], cfg.beat_sample_rate_hz, cfg.chirp, cfg.fft));
    }
    const auto sub0 = radar::background_subtract(spectra0);
    const auto sub1 = radar::background_subtract(spectra1);
    const auto det = radar::estimate_range(sub0, spectra0.front(), cfg.range);
    if (!det) return pass;
    pass.detected = true;
    pass.range_m = det->range_m;
    pass.snr_db = det->snr_db;
    const auto bin = std::size_t(std::llround(det->bin));
    if (bin < sub0.first_difference.size() && bin < sub1.first_difference.size()) {
      pass.aoa_offset_deg = radar::estimate_offset_deg(sub0.first_difference[bin],
                                                       sub1.first_difference[bin], cfg.aoa);
    }
    pass.angle_deg = steer_deg + pass.aoa_offset_deg.value_or(0.0);
    return pass;
  };

  const Pass first = run_pass(result.steered_azimuth_deg, false);
  if (first.detected) {
    result.detected = true;
    result.range_m = first.range_m;
    result.detection_snr_db = first.snr_db;
    result.aoa_offset_deg = first.aoa_offset_deg;
    result.angle_deg = first.angle_deg;
  }
  if (!cfg.reflector_aware || ch.multipath().los_only()) return result;

  const auto aligned =
      ch.fsa().beam_frequency_hz(antenna::FsaPort::kA, pose.orientation_deg);
  const double f_node = aligned.value_or(cfg.chirp.center_frequency_hz());
  const auto ps = ch.node_path_set(pose);
  const channel::PropPath* strongest = nullptr;
  double best_advantage_db = cfg.nlos_margin_db;
  for (const auto& p : ps.paths) {
    if (p.bounces == 0 || p.severed()) continue;
    const double advantage_db = ch.indirect_return_advantage_db(
        antenna::FsaPort::kA, f_node, pose, p, ps.direct().blocker_loss_db, p.aoa_deg);
    if (advantage_db > best_advantage_db) {
      best_advantage_db = advantage_db;
      strongest = &p;
    }
  }
  if (strongest == nullptr || strongest->wall < 0) return result;
  const double steer2_deg =
      strongest->aoa_deg + rng.gaussian(0.0, ch.config().steering_error_sigma_deg);
  const Pass echo = run_pass(steer2_deg, true);
  if (!echo.detected) return result;
  const double half_deg = radar::unambiguous_halfwidth_deg(cfg.aoa);
  const double bearing_deg = std::abs(echo.angle_deg - strongest->aoa_deg) <= half_deg
                                 ? echo.angle_deg
                                 : strongest->aoa_deg;
  double nx = 0.0, ny = 0.0;
  const auto& wall = ch.multipath().walls[std::size_t(strongest->wall)];
  if (channel::nlos_unfold(wall, echo.range_m, bearing_deg, &nx, &ny)) {
    result.detected = true;
    result.range_m = std::hypot(nx, ny);
    result.angle_deg = rad2deg(std::atan2(ny, nx));
    result.detection_snr_db = echo.snr_db;
    result.aoa_offset_deg = echo.aoa_offset_deg;
    result.steered_azimuth_deg = steer2_deg;
    result.nlos_fallback = true;
    result.reflector_wall = strongest->wall;
  }
  return result;
}

TEST(Localizer, LocalizeEqualsComposedStages) {
  // A two-wall office: each wall runs 0.6 m outside a corridor at +-12 deg.
  auto clear = cluttered_channel(5);
  channel::MultipathConfig walls;
  for (const double side : {1.0, -1.0}) {
    const double th = deg2rad(side * 12.0);
    const double ux = std::cos(th), uy = std::sin(th);
    const double nx = -uy * side * 0.6, ny = ux * side * 0.6;
    walls.walls.push_back({0.5 * ux + nx, 0.5 * uy + ny, 6.8 * ux + nx, 6.8 * uy + ny, 6.0});
  }
  clear.set_multipath(walls);
  auto blocked = clear;
  blocked.config().blockage_loss_db = 25.0;
  LocalizerConfig cfg;
  cfg.reflector_aware = true;
  const Localizer loc{cfg};

  struct Case {
    const channel::BackscatterChannel* channel;
    channel::NodePose pose;
  };
  const std::vector<Case> cases = {
      {&clear, {1.5, -20.0, 5.0}},
      {&clear, {3.2, 8.0, -10.0}},
      {&clear, {5.5, 21.0, 12.0}},
      {&blocked, {3.0, 12.0, 4.0}},   // in the +12 deg corridor: wall echo
      {&blocked, {4.5, -12.0, -6.0}},  // in the -12 deg corridor
  };
  std::size_t nlos = 0;
  for (std::size_t c = 0; c < cases.size(); ++c) {
    for (std::uint64_t k = 0; k < 4; ++k) {
      Rng a = Rng::stream(77, c, k), b = Rng::stream(77, c, k);
      const auto fix = loc.localize(*cases[c].channel, cases[c].pose, a);
      const auto composed = composed_localize(loc, *cases[c].channel, cases[c].pose, b);
      SCOPED_TRACE("case " + std::to_string(c) + " burst " + std::to_string(k));
      EXPECT_EQ(fix.detected, composed.detected);
      EXPECT_EQ(fix.range_m, composed.range_m);
      EXPECT_EQ(fix.angle_deg, composed.angle_deg);
      EXPECT_EQ(fix.detection_snr_db, composed.detection_snr_db);
      EXPECT_EQ(fix.aoa_offset_deg, composed.aoa_offset_deg);
      EXPECT_EQ(fix.steered_azimuth_deg, composed.steered_azimuth_deg);
      EXPECT_EQ(fix.nlos_fallback, composed.nlos_fallback);
      EXPECT_EQ(fix.reflector_wall, composed.reflector_wall);
      EXPECT_EQ(a.engine(), b.engine());
      nlos += fix.nlos_fallback ? 1 : 0;
    }
  }
  // The blocked corridor poses must exercise the second (NLoS) pass.
  EXPECT_GT(nlos, 0u);
}

}  // namespace
}  // namespace milback::ap
