// Multipath ghost-return tests.
//
// Narrow beams are mmWave's multipath armor: a ghost needs BOTH the AP horn
// and the node's FSA beam to illuminate the bounce reflector, which confines
// surviving ghosts to reflectors near the line of sight. These tests pin the
// geometry dependence and that the localizer is not fooled.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "milback/ap/localizer.hpp"
#include "milback/channel/backscatter_channel.hpp"
#include "milback/channel/multipath.hpp"
#include "milback/core/contract.hpp"
#include "milback/util/rng.hpp"
#include "milback/util/units.hpp"

namespace milback::channel {
namespace {

// The FSA-aligned frequency for broadside (orientation 0) nodes.
double aligned_f(const BackscatterChannel& chan, double orientation) {
  return chan.fsa().beam_frequency_hz(antenna::FsaPort::kA, orientation).value_or(28e9);
}

TEST(MultipathGhosts, EmptyEnvironmentNoGhosts) {
  const auto chan = BackscatterChannel::make_default(Environment::anechoic());
  const NodePose pose{3.0, 0.0, 10.0};
  EXPECT_TRUE(chan.node_ghost_returns(antenna::FsaPort::kA, 28.5e9, pose, 1.0).empty());
}

TEST(MultipathGhosts, NearLosReflectorProducesGhost) {
  // Reflector close to the AP-node line: both beams still illuminate it.
  Environment env;
  env.add({1.5, 4.0, 0.5});
  const auto chan = BackscatterChannel::make_default(env);
  const NodePose pose{3.0, 0.0, 0.0};
  const double f = aligned_f(chan, 0.0);
  const auto ghosts = chan.node_ghost_returns(antenna::FsaPort::kA, f, pose, 1.0);
  ASSERT_FALSE(ghosts.empty());
  const auto direct = chan.node_return(antenna::FsaPort::kA, f, pose, 1.0);
  EXPECT_TRUE(ghosts.front().modulated);
  EXPECT_GT(ghosts.front().delay_s, direct.delay_s);
  EXPECT_LT(ghosts.front().power_w, direct.power_w);
}

TEST(MultipathGhosts, OffBeamReflectorSuppressed) {
  // The same reflector moved 35 degrees off the line of sight: the horn
  // and FSA patterns bury the bounce below the -40 dB floor.
  Environment env;
  env.add({1.5, 35.0, 0.5});
  const auto chan = BackscatterChannel::make_default(env);
  const NodePose pose{3.0, 0.0, 0.0};
  const double f = aligned_f(chan, 0.0);
  EXPECT_TRUE(chan.node_ghost_returns(antenna::FsaPort::kA, f, pose, 1.0).empty());
}

TEST(MultipathGhosts, WeakFarReflectorDropped) {
  Environment env;
  env.add({9.0, -38.0, 0.05});
  const auto chan = BackscatterChannel::make_default(env);
  const NodePose pose{2.0, 0.0, 10.0};
  EXPECT_TRUE(chan.node_ghost_returns(antenna::FsaPort::kA, 28.5e9, pose, 1.0).empty());
}

TEST(MultipathGhosts, DelayMatchesGeometry) {
  Environment env;
  env.add({1.5, 4.0, 0.5});
  const auto chan = BackscatterChannel::make_default(env);
  const NodePose pose{3.0, 0.0, 0.0};
  const double f = aligned_f(chan, 0.0);
  const auto ghosts = chan.node_ghost_returns(antenna::FsaPort::kA, f, pose, 1.0);
  ASSERT_FALSE(ghosts.empty());
  const double wx = 1.5 * std::cos(deg2rad(4.0));
  const double wy = 1.5 * std::sin(deg2rad(4.0));
  const double d_wn = std::hypot(3.0 - wx, 0.0 - wy);
  const double expected = (3.0 + 1.5 + d_wn) / kSpeedOfLight;
  EXPECT_NEAR(ghosts.front().delay_s, expected, 1e-12);
}

TEST(MultipathGhosts, BounceLossKnobWorks) {
  Environment env;
  env.add({1.5, 4.0, 0.5});
  const auto chan = BackscatterChannel::make_default(env);
  const NodePose pose{3.0, 0.0, 0.0};
  const double f = aligned_f(chan, 0.0);
  const auto soft = chan.node_ghost_returns(antenna::FsaPort::kA, f, pose, 1.0, 6.0);
  const auto hard = chan.node_ghost_returns(antenna::FsaPort::kA, f, pose, 1.0, 12.0);
  ASSERT_FALSE(soft.empty());
  ASSERT_FALSE(hard.empty());
  EXPECT_GT(soft.front().power_w, hard.front().power_w);
}

TEST(MultipathGhosts, GhostDelaySmearIsSmallForNearLosBounce) {
  // Near-LoS bounces add little path length, so the ghost lands within a
  // couple of range bins of the direct return (range-bias, not a phantom
  // second target) — the structural reason narrow-beam FMCW localization
  // stays clean indoors.
  Environment env;
  env.add({1.5, 4.0, 0.5});
  const auto chan = BackscatterChannel::make_default(env);
  const NodePose pose{3.0, 0.0, 0.0};
  const double f = aligned_f(chan, 0.0);
  const auto ghosts = chan.node_ghost_returns(antenna::FsaPort::kA, f, pose, 1.0);
  ASSERT_FALSE(ghosts.empty());
  const auto direct = chan.node_return(antenna::FsaPort::kA, f, pose, 1.0);
  const double extra_m = (ghosts.front().delay_s - direct.delay_s) * kSpeedOfLight / 2.0;
  EXPECT_LT(extra_m, 0.25);  // within ~5 range bins
}

TEST(MultipathGhosts, LocalizerStillPicksDirectPath) {
  Environment env;
  env.add({1.5, 4.0, 0.2});
  env.add({2.5, -22.0, 0.6});
  const auto chan = BackscatterChannel::make_default(env);
  ap::Localizer loc;
  Rng rng(3);
  const NodePose pose{3.0, 0.0, 0.0};
  const auto r = loc.localize(chan, pose, rng);
  ASSERT_TRUE(r.detected);
  EXPECT_NEAR(r.range_m, 3.0, 0.25);
}

TEST(MultipathGhosts, GhostsOffByConfigMatchLegacyPipeline) {
  Environment env;
  env.add({1.5, 4.0, 0.2});
  const auto chan = BackscatterChannel::make_default(env);
  ap::LocalizerConfig cfg;
  cfg.include_multipath_ghosts = false;
  ap::Localizer loc{cfg};
  Rng rng(4);
  const auto r = loc.localize(chan, {3.0, 0.0, 0.0}, rng);
  ASSERT_TRUE(r.detected);
  EXPECT_NEAR(r.range_m, 3.0, 0.2);
}

// --- PathSet / image-method ray layer ---------------------------------------
//
// The deterministic first-order specular tracer behind every non-LoS channel
// query. The geometry cases are pinned against hand computation: a node at
// (3, 0) with a wall along y = 2 has its image at (3, 4), so the bounce path
// is the straight AP->image ray of length hypot(3, 4) = 5 m with specular
// point (1.5, 2) and AP bearing atan2(2, 1.5) = 53.13 deg.

TEST(MultipathPathSet, LosOnlyConfigIsSingleDirectPath) {
  const MultipathConfig mp;
  EXPECT_TRUE(mp.los_only());
  const PathSet set = trace_paths(mp, 3.0, 0.0, 0.0);
  ASSERT_EQ(set.paths.size(), 1u);
  EXPECT_EQ(set.paths[0].bounces, 0);
  EXPECT_EQ(set.paths[0].wall, -1);
  EXPECT_DOUBLE_EQ(set.paths[0].length_m, 3.0);
  EXPECT_DOUBLE_EQ(set.paths[0].blocker_loss_db, 0.0);
  EXPECT_FALSE(set.paths[0].severed());
  EXPECT_EQ(set.active_count(), 1u);
  EXPECT_EQ(set.severed_count(), 0u);
}

TEST(MultipathPathSet, ImageMethodMatchesHandComputation) {
  MultipathConfig mp;
  mp.walls.push_back({0.0, 2.0, 3.0, 2.0, 9.0});
  const PathSet set = trace_paths(mp, 3.0, 0.0, 0.0);
  ASSERT_EQ(set.paths.size(), 2u);
  EXPECT_EQ(set.direct().bounces, 0);
  const PropPath& bounce = set.paths[1];
  EXPECT_EQ(bounce.bounces, 1);
  EXPECT_EQ(bounce.wall, 0);
  EXPECT_NEAR(bounce.length_m, 5.0, 1e-12);
  EXPECT_NEAR(bounce.hit_x_m, 1.5, 1e-12);
  EXPECT_NEAR(bounce.hit_y_m, 2.0, 1e-12);
  EXPECT_NEAR(bounce.aoa_deg, rad2deg(std::atan2(2.0, 1.5)), 1e-9);
  // Node-side departure points at the specular point: (-1.5, 2) from (3, 0).
  EXPECT_NEAR(bounce.aod_deg, rad2deg(std::atan2(2.0, -1.5)), 1e-9);
  EXPECT_DOUBLE_EQ(bounce.bounce_loss_db, 9.0);
}

TEST(MultipathPathSet, SpecularPointOffSegmentContributesNoPath) {
  // Same wall line, but the physical segment sits at x in [10, 12]: the
  // specular point (1.5, 2) misses it, so only the direct ray survives.
  MultipathConfig mp;
  mp.walls.push_back({10.0, 2.0, 12.0, 2.0, 9.0});
  EXPECT_EQ(trace_paths(mp, 3.0, 0.0, 0.0).paths.size(), 1u);
}

TEST(MultipathPathSet, NodeAcrossWallLineHasNoImage) {
  // Specular reflection needs AP and node on the same side of the wall line.
  MultipathConfig mp;
  mp.walls.push_back({0.0, 2.0, 6.0, 2.0, 9.0});
  EXPECT_EQ(trace_paths(mp, 3.0, 5.0, 0.0).paths.size(), 1u);
}

TEST(MultipathPathSet, BlockerSeversDirectButNotBouncePath) {
  MultipathConfig mp;
  mp.walls.push_back({0.0, 2.0, 3.0, 2.0, 9.0});
  mp.blockers.push_back({1.5, 0.0, 0.0, 0.0, 0.3, 30.0});
  const PathSet set = trace_paths(mp, 3.0, 0.0, 0.0);
  ASSERT_EQ(set.paths.size(), 2u);
  EXPECT_DOUBLE_EQ(set.direct().blocker_loss_db, 30.0);
  EXPECT_TRUE(set.direct().severed());
  EXPECT_DOUBLE_EQ(set.paths[1].blocker_loss_db, 0.0);
  EXPECT_EQ(set.active_count(), 1u);
  EXPECT_EQ(set.severed_count(), 1u);
}

TEST(MultipathPathSet, MovingBlockerSeversOverSimTime) {
  // A blocker walking up the y axis crosses the AP-node ray at t = 5 s.
  MultipathConfig mp;
  mp.blockers.push_back({1.5, -5.0, 0.0, 1.0, 0.3, 30.0});
  EXPECT_FALSE(trace_paths(mp, 3.0, 0.0, 0.0).direct().severed());
  EXPECT_TRUE(trace_paths(mp, 3.0, 0.0, 5.0).direct().severed());
  EXPECT_FALSE(trace_paths(mp, 3.0, 0.0, 10.0).direct().severed());
}

TEST(MultipathPathSet, TraceIsDeterministic) {
  const MultipathConfig mp = MultipathConfig::office_walls(7, 6);
  const PathSet a = trace_paths(mp, 3.2, 1.1, 0.25);
  const PathSet b = trace_paths(mp, 3.2, 1.1, 0.25);
  ASSERT_EQ(a.paths.size(), b.paths.size());
  for (std::size_t i = 0; i < a.paths.size(); ++i) {
    EXPECT_EQ(a.paths[i].length_m, b.paths[i].length_m);
    EXPECT_EQ(a.paths[i].aoa_deg, b.paths[i].aoa_deg);
    EXPECT_EQ(a.paths[i].aod_deg, b.paths[i].aod_deg);
    EXPECT_EQ(a.paths[i].bounce_loss_db, b.paths[i].bounce_loss_db);
    EXPECT_EQ(a.paths[i].blocker_loss_db, b.paths[i].blocker_loss_db);
    EXPECT_EQ(a.paths[i].wall, b.paths[i].wall);
  }
}

TEST(MultipathPathSet, OfficeWallsAreSeedKeyedPerWall) {
  // Wall k derives from Rng::stream(seed, tag, k): requesting more walls
  // must not change the earlier ones, and a different seed must.
  const auto small = MultipathConfig::office_walls(7, 2);
  const auto large = MultipathConfig::office_walls(7, 6);
  ASSERT_EQ(small.walls.size(), 2u);
  ASSERT_EQ(large.walls.size(), 6u);
  for (std::size_t k = 0; k < small.walls.size(); ++k) {
    EXPECT_EQ(small.walls[k].x1_m, large.walls[k].x1_m);
    EXPECT_EQ(small.walls[k].y1_m, large.walls[k].y1_m);
    EXPECT_EQ(small.walls[k].x2_m, large.walls[k].x2_m);
    EXPECT_EQ(small.walls[k].y2_m, large.walls[k].y2_m);
    EXPECT_EQ(small.walls[k].reflection_loss_db, large.walls[k].reflection_loss_db);
  }
  const auto other = MultipathConfig::office_walls(8, 2);
  EXPECT_NE(small.walls[0].x1_m, other.walls[0].x1_m);
}

TEST(MultipathPathSet, NlosUnfoldRoundTripsTracedBounce) {
  MultipathConfig mp;
  mp.walls.push_back({0.0, 2.0, 3.0, 2.0, 9.0});
  const PathSet set = trace_paths(mp, 3.0, 0.0, 0.0);
  ASSERT_EQ(set.paths.size(), 2u);
  const PropPath& bounce = set.paths[1];
  double nx = 0.0, ny = 0.0;
  ASSERT_TRUE(nlos_unfold(mp.walls[0], bounce.length_m, bounce.aoa_deg, &nx, &ny));
  EXPECT_NEAR(nx, 3.0, 1e-9);
  EXPECT_NEAR(ny, 0.0, 1e-9);
}

TEST(MultipathPathSet, NlosUnfoldRejectsMissAndShortPath) {
  const WallSegment wall{0.0, 2.0, 3.0, 2.0, 9.0};
  double nx = 0.0, ny = 0.0;
  // Bearing pointing away from the wall: the ray never hits the segment.
  EXPECT_FALSE(nlos_unfold(wall, 5.0, -45.0, &nx, &ny));
  // Path shorter than the AP-to-wall leg: no unfolded position exists.
  EXPECT_FALSE(nlos_unfold(wall, 1.0, 53.13, &nx, &ny));
}

// Reference copy of trace_paths as it stood before its specular-point and
// leg-blocker geometry became the public `specular_bounce` and
// `leg_blocker_loss_db` primitives (and before the disc test gained its
// squared-distance shortcut). The split must not move a single bit.
namespace reference {

constexpr double kMinLegM = 0.05;

double point_segment_distance(double px, double py, double x1, double y1,
                              double x2, double y2) {
  const double ux = x2 - x1;
  const double uy = y2 - y1;
  const double len2 = ux * ux + uy * uy;
  double t = 0.0;
  if (len2 > 0.0) {
    t = ((px - x1) * ux + (py - y1) * uy) / len2;
    t = std::min(std::max(t, 0.0), 1.0);
  }
  return std::hypot(px - (x1 + t * ux), py - (y1 + t * uy));
}

bool segment_hits_disc(double ax, double ay, double bx, double by, double cx,
                       double cy, double r) {
  return point_segment_distance(cx, cy, ax, ay, bx, by) <= r;
}

double leg_blocker_loss_db(const MultipathConfig& config, double ax, double ay,
                           double bx, double by, double time_s) {
  double loss = 0.0;
  for (const auto& b : config.blockers) {
    const double cx = b.x_m + b.vx_mps * time_s;
    const double cy = b.y_m + b.vy_mps * time_s;
    if (segment_hits_disc(ax, ay, bx, by, cx, cy, b.radius_m)) {
      loss += b.penetration_loss_db;
    }
  }
  return loss;
}

bool wall_image_path(const WallSegment& w, double nx, double ny, PropPath* out) {
  const double ux = w.x2_m - w.x1_m;
  const double uy = w.y2_m - w.y1_m;
  const double len2 = ux * ux + uy * uy;
  if (len2 <= 0.0) return false;
  const double side_ap = ux * (0.0 - w.y1_m) - uy * (0.0 - w.x1_m);
  const double side_node = ux * (ny - w.y1_m) - uy * (nx - w.x1_m);
  if (side_ap * side_node <= 0.0) return false;
  const double wx = nx - w.x1_m;
  const double wy = ny - w.y1_m;
  const double proj = (wx * ux + wy * uy) / len2;
  const double footx = w.x1_m + proj * ux;
  const double footy = w.y1_m + proj * uy;
  const double ix = 2.0 * footx - nx;
  const double iy = 2.0 * footy - ny;
  const double det = ix * (-uy) - iy * (-ux);
  if (std::abs(det) < 1e-12) return false;
  const double s = (w.x1_m * (-uy) - w.y1_m * (-ux)) / det;
  const double t = (ix * w.y1_m - iy * w.x1_m) / det;
  if (s <= 0.0 || s >= 1.0) return false;
  if (t < 0.0 || t > 1.0) return false;
  const double hx = s * ix;
  const double hy = s * iy;
  const double d_ah = std::hypot(hx, hy);
  const double d_hn = std::hypot(nx - hx, ny - hy);
  if (d_ah < kMinLegM || d_hn < kMinLegM) return false;
  out->length_m = d_ah + d_hn;
  out->aoa_deg = rad2deg(std::atan2(hy, hx));
  out->aod_deg = rad2deg(std::atan2(hy - ny, hx - nx));
  out->bounce_loss_db = w.reflection_loss_db;
  out->bounces = 1;
  out->hit_x_m = hx;
  out->hit_y_m = hy;
  return true;
}

PathSet trace_paths(const MultipathConfig& config, double node_x_m,
                    double node_y_m, double time_s) {
  PathSet set;
  PropPath direct;
  direct.length_m = std::hypot(node_x_m, node_y_m);
  direct.aoa_deg = rad2deg(std::atan2(node_y_m, node_x_m));
  direct.aod_deg = rad2deg(std::atan2(-node_y_m, -node_x_m));
  direct.blocker_loss_db =
      leg_blocker_loss_db(config, 0.0, 0.0, node_x_m, node_y_m, time_s);
  set.paths.push_back(direct);
  for (std::size_t w = 0; w < config.walls.size(); ++w) {
    PropPath p;
    if (!wall_image_path(config.walls[w], node_x_m, node_y_m, &p)) continue;
    p.wall = static_cast<int>(w);
    p.blocker_loss_db =
        leg_blocker_loss_db(config, 0.0, 0.0, p.hit_x_m, p.hit_y_m, time_s) +
        leg_blocker_loss_db(config, p.hit_x_m, p.hit_y_m, node_x_m, node_y_m,
                            time_s);
    set.paths.push_back(p);
  }
  return set;
}

}  // namespace reference

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_same_paths(const PathSet& got, const PathSet& want) {
  ASSERT_EQ(got.paths.size(), want.paths.size());
  for (std::size_t i = 0; i < got.paths.size(); ++i) {
    const PropPath& g = got.paths[i];
    const PropPath& w = want.paths[i];
    EXPECT_EQ(bits(g.length_m), bits(w.length_m)) << "path " << i;
    EXPECT_EQ(bits(g.aoa_deg), bits(w.aoa_deg)) << "path " << i;
    EXPECT_EQ(bits(g.aod_deg), bits(w.aod_deg)) << "path " << i;
    EXPECT_EQ(bits(g.bounce_loss_db), bits(w.bounce_loss_db)) << "path " << i;
    EXPECT_EQ(bits(g.blocker_loss_db), bits(w.blocker_loss_db)) << "path " << i;
    EXPECT_EQ(g.bounces, w.bounces) << "path " << i;
    EXPECT_EQ(g.wall, w.wall) << "path " << i;
    EXPECT_EQ(bits(g.hit_x_m), bits(w.hit_x_m)) << "path " << i;
    EXPECT_EQ(bits(g.hit_y_m), bits(w.hit_y_m)) << "path " << i;
  }
}

TEST(Multipath, TracePathsUnchangedByPrimitiveSplit) {
  constexpr std::uint64_t kTag = 0x73706c6974ULL;  // "split"
  std::size_t bounce_paths = 0, severed_paths = 0;
  for (std::uint64_t scene_id = 0; scene_id < 40; ++scene_id) {
    MultipathConfig mp;
    Rng rng = Rng::stream(11, kTag, scene_id);
    const std::size_t n_walls = std::size_t(rng.uniform_int(0, 6));
    for (std::size_t k = 0; k < n_walls; ++k) {
      WallSegment w{rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0),
                    rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0),
                    rng.uniform(0.0, 12.0)};
      if (k == 0 && scene_id % 5 == 0) {  // zero-length wall
        w.x2_m = w.x1_m;
        w.y2_m = w.y1_m;
      }
      mp.walls.push_back(w);
    }
    const std::size_t n_blockers = std::size_t(rng.uniform_int(0, 3));
    for (std::size_t k = 0; k < n_blockers; ++k) {
      mp.blockers.push_back({rng.uniform(-6.0, 6.0), rng.uniform(-6.0, 6.0),
                             rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                             rng.uniform(0.1, 1.5), rng.uniform(0.0, 40.0)});
    }
    for (std::uint64_t q = 0; q < 50; ++q) {
      Rng qrng = Rng::stream(11, kTag, scene_id, q);
      const double nx = qrng.uniform(-9.0, 9.0);
      const double ny = qrng.uniform(-9.0, 9.0);
      const double t = qrng.uniform(0.0, 4.0);
      const PathSet got = trace_paths(mp, nx, ny, t);
      expect_same_paths(got, reference::trace_paths(mp, nx, ny, t));
      bounce_paths += got.paths.size() - 1;
      severed_paths += got.severed_count();
    }
  }
  // The scenes exercise both halves of the geometry.
  EXPECT_GT(bounce_paths, 100u);
  EXPECT_GT(severed_paths, 100u);

  // Blockers whose rim passes within rounding of a leg: the squared-distance
  // shortcut must hand these to the hypot, exactly as before.
  for (const double r : {0.3, std::nextafter(0.3, 0.0), std::nextafter(0.3, 1.0),
                         0.3 * (1.0 + 1e-7), 0.3 * (1.0 - 1e-7), 1e-120, 1e120}) {
    MultipathConfig mp;
    mp.walls.push_back({0.0, 2.0, 3.0, 2.0, 9.0});
    mp.blockers.push_back({1.5, 0.3, 0.0, 0.0, r, 30.0});
    mp.blockers.push_back({0.75, 1.0 + 0.3, 0.0, 0.0, r, 20.0});
    expect_same_paths(trace_paths(mp, 3.0, 0.0, 0.0),
                      reference::trace_paths(mp, 3.0, 0.0, 0.0));
  }
}

TEST(Multipath, PrimitivesMatchTracePaths) {
  MultipathConfig mp;
  mp.walls.push_back({0.0, 2.0, 3.0, 2.0, 9.0});
  mp.walls.push_back({10.0, 2.0, 12.0, 2.0, 9.0});  // specular point misses
  mp.blockers.push_back({1.5, 0.0, 0.0, 0.0, 0.3, 30.0});
  const PathSet set = trace_paths(mp, 3.0, 0.0, 0.0);
  ASSERT_EQ(set.paths.size(), 2u);
  SpecularBounce b;
  ASSERT_TRUE(specular_bounce(mp.walls[0], 3.0, 0.0, &b));
  EXPECT_EQ(b.length_m, set.paths[1].length_m);
  EXPECT_EQ(b.hit_x_m, set.paths[1].hit_x_m);
  EXPECT_EQ(b.hit_y_m, set.paths[1].hit_y_m);
  SpecularBounce untouched{-1.0, -1.0, -1.0};
  EXPECT_FALSE(specular_bounce(mp.walls[1], 3.0, 0.0, &untouched));
  EXPECT_EQ(untouched.length_m, -1.0);
  EXPECT_EQ(leg_blocker_loss_db(mp.blockers, 0.0, 0.0, 3.0, 0.0, 0.0),
            set.direct().blocker_loss_db);
  EXPECT_EQ(leg_blocker_loss_db(mp.blockers, 0.0, 0.0, 3.0, 0.0, 0.0), 30.0);
  EXPECT_EQ(leg_blocker_loss_db({}, 0.0, 0.0, 3.0, 0.0, 0.0), 0.0);
}

TEST(MultipathPathSet, ContractsRejectBadInputs) {
  EXPECT_THROW(MultipathConfig::office_walls(1, 65), ContractViolation);
  const MultipathConfig mp;
  EXPECT_THROW(trace_paths(mp, std::nan(""), 0.0, 0.0), ContractViolation);
  const WallSegment wall{0.0, 2.0, 3.0, 2.0, 9.0};
  double nx = 0.0, ny = 0.0;
  EXPECT_THROW(nlos_unfold(wall, -1.0, 10.0, &nx, &ny), ContractViolation);
  EXPECT_THROW(nlos_unfold(wall, 5.0, 10.0, nullptr, &ny), ContractViolation);
}

}  // namespace
}  // namespace milback::channel
