// Neighbor-table tests: the relay link budget over the multipath PathSet —
// distance falloff, the prefilter bound, wall rescue, blocker severing, the
// CSR build over a population, and the row kernel against a per-pair
// reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "milback/channel/propagation.hpp"
#include "milback/core/contract.hpp"
#include "milback/mesh/neighbor_table.hpp"
#include "milback/util/rng.hpp"

namespace milback::mesh {
namespace {

using channel::MultipathConfig;

MeshConfig cfg() {
  MeshConfig c;
  c.relay_snr_at_1m_db = 28.0;
  c.relay_min_snr_db = 10.0;
  return c;
}

TEST(MeshNeighborTable, MarginFallsWithDistanceAndCrossesZero) {
  const MultipathConfig scene;
  const double m3 =
      relay_link_margin_db(cfg(), scene, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0);
  const double m6 =
      relay_link_margin_db(cfg(), scene, 0.0, 0.0, 0.0, 0.0, 6.0, 0.0, 0.0);
  const double m9 =
      relay_link_margin_db(cfg(), scene, 0.0, 0.0, 0.0, 0.0, 9.0, 0.0, 0.0);
  EXPECT_GT(m3, m6);
  EXPECT_GT(m6, 0.0);
  EXPECT_LT(m9, 0.0);
}

TEST(MeshNeighborTable, MarginIsSymmetricAndTranslationInvariant) {
  MultipathConfig scene;
  scene.walls.push_back({-1.0, 1.5, 7.0, 1.5, 6.0});
  const double fwd =
      relay_link_margin_db(cfg(), scene, 0.0, 0.0, 2.0, -1.0, 6.0, 1.0, 0.0);
  const double rev =
      relay_link_margin_db(cfg(), scene, 0.0, 0.0, 6.0, 1.0, 2.0, -1.0, 0.0);
  EXPECT_NEAR(fwd, rev, 1e-9);
  // Shifting the whole scene and both endpoints together changes nothing.
  MultipathConfig shifted;
  shifted.walls.push_back({-1.0 + 10.0, 1.5 - 3.0, 7.0 + 10.0, 1.5 - 3.0, 6.0});
  const double moved = relay_link_margin_db(cfg(), shifted, 0.0, 0.0,
                                            12.0, -4.0, 16.0, -2.0, 0.0);
  EXPECT_NEAR(fwd, moved, 1e-9);
}

TEST(MeshNeighborTable, MaxRelayRangeBoundsTheEdgeThreshold) {
  const MultipathConfig scene;
  const double range_m = max_relay_range_m(cfg());
  // 18 dB of headroom over the 10 dB threshold -> ~7.9 m of one-way FSPL.
  EXPECT_NEAR(range_m, std::pow(10.0, 18.0 / 20.0), 1e-9);
  EXPECT_GE(relay_link_margin_db(cfg(), scene, 0.0, 0.0, 0.0, 0.0,
                                 range_m - 0.05, 0.0, 0.0),
            0.0);
  EXPECT_LT(relay_link_margin_db(cfg(), scene, 0.0, 0.0, 0.0, 0.0,
                                 range_m + 0.05, 0.0, 0.0),
            0.0);
}

TEST(MeshNeighborTable, WallCarriesTheLinkAroundABlocker) {
  MeshConfig c = cfg();
  c.relay_snr_at_1m_db = 34.0;  // headroom so the bounce path clears 10 dB
  // A torso parked mid-pair severs the direct ray between (0,0) and (6,0).
  MultipathConfig blocked;
  blocked.blockers.push_back({3.0, 0.0, 0.0, 0.0, 0.4, 40.0});
  const double severed =
      relay_link_margin_db(c, blocked, 0.0, 0.0, 0.0, 0.0, 6.0, 0.0, 0.0);
  EXPECT_LT(severed, 0.0);

  // The same pair with a reflector alongside keeps a usable link.
  MultipathConfig rescued = blocked;
  rescued.walls.push_back({-1.0, 1.0, 7.0, 1.0, 3.0});
  const double carried =
      relay_link_margin_db(c, rescued, 0.0, 0.0, 0.0, 0.0, 6.0, 0.0, 0.0);
  EXPECT_GT(carried, 0.0);
  EXPECT_LT(carried, relay_link_margin_db(c, MultipathConfig{}, 0.0, 0.0, 0.0,
                                          0.0, 6.0, 0.0, 0.0));
}

TEST(MeshNeighborTable, BlockageHitsOnlyTheDirectLegAmbientHitsAll) {
  MeshConfig c = cfg();
  c.relay_snr_at_1m_db = 34.0;
  MultipathConfig scene;
  scene.walls.push_back({-1.0, 1.0, 7.0, 1.0, 3.0});
  const double clear =
      relay_link_margin_db(c, scene, 0.0, 0.0, 0.0, 0.0, 6.0, 0.0, 0.0);
  // A cell-wide blockage episode suppresses the direct ray; the wall path
  // (untouched by blockage) now sets the margin.
  const double episode =
      relay_link_margin_db(c, scene, 30.0, 0.0, 0.0, 0.0, 6.0, 0.0, 0.0);
  EXPECT_LT(episode, clear);
  EXPECT_GT(episode, 0.0);
  // Ambient/co-channel loss degrades every path including the wall's.
  const double ambient =
      relay_link_margin_db(c, scene, 30.0, 6.0, 0.0, 0.0, 6.0, 0.0, 0.0);
  EXPECT_NEAR(ambient, episode - 6.0, 1e-9);
}

TEST(MeshNeighborTable, MovingBlockerSeversTheEdgeOverTime) {
  MultipathConfig scene;
  // Crosses the pair midline around t = 2 s.
  scene.blockers.push_back({3.0, -8.0, 0.0, 4.0, 0.5, 40.0});
  const double before =
      relay_link_margin_db(cfg(), scene, 0.0, 0.0, 0.0, 0.0, 6.0, 0.0, 0.0);
  const double during =
      relay_link_margin_db(cfg(), scene, 0.0, 0.0, 0.0, 0.0, 6.0, 0.0, 2.0);
  const double after =
      relay_link_margin_db(cfg(), scene, 0.0, 0.0, 0.0, 0.0, 6.0, 0.0, 4.0);
  EXPECT_GT(before, 0.0);
  EXPECT_LT(during, 0.0);
  EXPECT_NEAR(after, before, 1e-9);
}

TEST(MeshNeighborTable, BuildIsSymmetricCsrAndSkipsDeadRows) {
  const std::vector<double> x{0.0, 5.0, 10.0, 2.5};
  const std::vector<double> y{0.0, 0.0, 0.0, 0.0};
  const std::vector<std::uint8_t> alive{1, 1, 1, 0};
  const auto table =
      build_neighbor_table(cfg(), MultipathConfig{}, 0.0, 0.0, x, y, alive, 0.0);
  ASSERT_EQ(table.node_count(), 4u);
  // 0-1 and 1-2 are 5 m apart (edges); 0-2 is 10 m (none); 3 is dead.
  ASSERT_EQ(table.neighbors(0).size(), 1u);
  EXPECT_EQ(table.neighbors(0)[0].neighbor, 1u);
  ASSERT_EQ(table.neighbors(1).size(), 2u);
  EXPECT_EQ(table.neighbors(1)[0].neighbor, 0u);
  EXPECT_EQ(table.neighbors(1)[1].neighbor, 2u);
  ASSERT_EQ(table.neighbors(2).size(), 1u);
  EXPECT_EQ(table.neighbors(2)[0].neighbor, 1u);
  EXPECT_TRUE(table.neighbors(3).empty());
  // Symmetric margins on the shared edge.
  EXPECT_FLOAT_EQ(table.neighbors(0)[0].margin_db,
                  table.neighbors(1)[0].margin_db);
  EXPECT_EQ(table.edge_count(), 4u);
  EXPECT_GT(table.allocated_bytes(), 0u);
}

TEST(MeshNeighborTable, BuildRejectsMismatchedColumns) {
  const std::vector<double> x{0.0, 5.0};
  const std::vector<double> y{0.0};
  const std::vector<std::uint8_t> alive{1, 1};
  EXPECT_THROW(build_neighbor_table(cfg(), MultipathConfig{}, 0.0, 0.0, x, y,
                                    alive, 0.0),
               milback::ContractViolation);
}

TEST(MeshNeighborTable, BuildRejectsNonFiniteAliveNode) {
  const std::vector<std::uint8_t> alive{1, 1, 1};
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    // A node at infinity would otherwise sit beyond every cutoff and lose
    // all its links without a word.
    const std::vector<double> good{0.0, 3.0, 6.0};
    std::vector<double> x = good, y = good;
    x[1] = bad;
    EXPECT_THROW(build_neighbor_table(cfg(), MultipathConfig{}, 0.0, 0.0, x,
                                      good, alive, 0.0),
                 milback::ContractViolation);
    y[2] = bad;
    EXPECT_THROW(build_neighbor_table(cfg(), MultipathConfig{}, 0.0, 0.0, good,
                                      y, alive, 0.0),
                 milback::ContractViolation);
    // A lone alive node has no pair to trace, and is still rejected.
    const std::vector<double> lone_x{bad}, lone_y{0.0};
    const std::vector<std::uint8_t> lone_alive{1};
    EXPECT_THROW(build_neighbor_table(cfg(), MultipathConfig{}, 0.0, 0.0,
                                      lone_x, lone_y, lone_alive, 0.0),
                 milback::ContractViolation);
    EXPECT_THROW(build_neighbor_table(cfg(), MultipathConfig{}, 0.0, 0.0,
                                      lone_y, lone_x, lone_alive, 0.0),
                 milback::ContractViolation);
    EXPECT_THROW(build_neighbor_table(cfg(), MultipathConfig{}, 0.0, 0.0, good,
                                      good, alive, bad),
                 milback::ContractViolation);
  }
}

TEST(MeshNeighborTable, BuildIgnoresNonFiniteDeadNode) {
  const std::vector<std::uint8_t> alive{1, 0, 1};
  const std::vector<double> y{0.0, 0.0, 0.0};
  const std::vector<double> finite_x{0.0, 2.0, 5.0};
  const auto want = build_neighbor_table(cfg(), MultipathConfig{}, 0.0, 0.0,
                                         finite_x, y, alive, 0.0);
  ASSERT_EQ(want.edge_count(), 2u);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    std::vector<double> x = finite_x, bad_y = y;
    x[1] = bad;
    bad_y[1] = bad;
    const auto got = build_neighbor_table(cfg(), MultipathConfig{}, 0.0, 0.0, x,
                                          bad_y, alive, 0.0);
    EXPECT_EQ(got.offset, want.offset);
    ASSERT_EQ(got.links.size(), want.links.size());
    for (std::size_t k = 0; k < got.links.size(); ++k) {
      EXPECT_EQ(got.links[k].neighbor, want.links[k].neighbor);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got.links[k].margin_db),
                std::bit_cast<std::uint32_t>(want.links[k].margin_db));
    }
  }
}

// Reference copy of the per-pair margin as it stood before the row kernel:
// translate the whole scene into the source's frame for every pair, trace
// the full PathSet and take the best path.
double reference_margin_db(const MeshConfig& config,
                           const MultipathConfig& scene,
                           double blockage_loss_db, double ambient_loss_db,
                           double x1_m, double y1_m, double x2_m, double y2_m,
                           double time_s) {
  MultipathConfig local;
  local.walls.reserve(scene.walls.size());
  for (const auto& w : scene.walls) {
    local.walls.push_back({w.x1_m - x1_m, w.y1_m - y1_m, w.x2_m - x1_m,
                           w.y2_m - y1_m, w.reflection_loss_db});
  }
  local.blockers.reserve(scene.blockers.size());
  for (const auto& b : scene.blockers) {
    local.blockers.push_back({b.x_m - x1_m, b.y_m - y1_m, b.vx_mps, b.vy_mps,
                              b.radius_m, b.penetration_loss_db});
  }

  const auto paths =
      channel::trace_paths(local, x2_m - x1_m, y2_m - y1_m, time_s);
  const double ref_db = channel::fspl_db(1.0, config.carrier_hz);
  double best_snr_db = -1e9;
  for (const auto& p : paths.paths) {
    double excess_db = channel::fspl_db(std::max(p.length_m, 0.01),
                                        config.carrier_hz) -
                       ref_db + p.bounce_loss_db + p.blocker_loss_db +
                       ambient_loss_db;
    if (p.bounces == 0) excess_db += blockage_loss_db;
    best_snr_db = std::max(best_snr_db, config.relay_snr_at_1m_db - excess_db);
  }
  return best_snr_db - config.relay_min_snr_db;
}

NeighborTable reference_table(const MeshConfig& config,
                              const MultipathConfig& scene,
                              double blockage_loss_db, double ambient_loss_db,
                              const std::vector<double>& x_m,
                              const std::vector<double>& y_m,
                              const std::vector<std::uint8_t>& alive,
                              double time_s) {
  const std::size_t n = x_m.size();
  NeighborTable table;
  table.offset.assign(n + 1, 0);
  const double cutoff_m = max_relay_range_m(config) + 1e-9;
  for (std::size_t i = 0; i < n; ++i) {
    if (alive[i]) {
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i || !alive[j]) continue;
        const double d = std::hypot(x_m[j] - x_m[i], y_m[j] - y_m[i]);
        if (d > cutoff_m) continue;
        const double margin_db = reference_margin_db(
            config, scene, blockage_loss_db, ambient_loss_db, x_m[i], y_m[i],
            x_m[j], y_m[j], time_s);
        if (margin_db < 0.0) continue;
        table.links.push_back({std::uint32_t(j), float(margin_db)});
      }
    }
    table.offset[i + 1] = std::uint32_t(table.links.size());
  }
  return table;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST(MeshNeighborTable, RowKernelMatchesPerPairReference) {
  constexpr std::uint64_t kTag = 0x726f776b726e6cULL;  // "rowkrnl"
  const MeshConfig config = cfg();
  const double cutoff_m = max_relay_range_m(config);
  // Wall losses that must keep the dominance cut from firing (a gain, 0 dB,
  // below and at its epsilon) mixed with ordinary lossy walls.
  const double wall_losses_db[] = {-3.0, 0.0, 1e-9, 5e-7, 1e-6, 2.0, 10.0};
  std::size_t edges = 0, bounce_wins = 0, wins_without_episode = 0;
  for (std::uint64_t scene_id = 0; scene_id < 48; ++scene_id) {
    Rng rng = Rng::stream(5, kTag, scene_id);
    const std::size_t n = 36;
    std::vector<double> x(n), y(n);
    std::vector<std::uint8_t> alive(n, 1);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = rng.uniform(-2.0, 14.0);
      y[i] = rng.uniform(-4.0, 6.0);
      alive[i] = rng.uniform(0.0, 1.0) < 0.85 ? 1 : 0;
    }
    // Pairs at exactly the cutoff distance, just inside and just outside.
    x[0] = 0.0;
    y[0] = 0.0;
    x[1] = cutoff_m;
    y[1] = 0.0;
    x[2] = 0.0;
    y[2] = cutoff_m + 1e-9;
    x[3] = std::nextafter(cutoff_m + 1e-9, 100.0);
    y[3] = 0.0;
    alive[0] = alive[1] = alive[2] = alive[3] = 1;

    MultipathConfig scene;
    const std::size_t n_walls = std::size_t(rng.uniform_int(1, 5));
    for (std::size_t k = 0; k < n_walls; ++k) {
      const double loss_db = wall_losses_db[std::size_t(
          rng.uniform_int(0, std::int64_t(std::size(wall_losses_db)) - 1))];
      channel::WallSegment w{rng.uniform(-4.0, 16.0), rng.uniform(-6.0, 8.0),
                             rng.uniform(-4.0, 16.0), rng.uniform(-6.0, 8.0),
                             loss_db};
      const std::size_t a = std::size_t(rng.uniform_int(4, std::int64_t(n) - 1));
      const std::size_t b = std::size_t(rng.uniform_int(4, std::int64_t(n) - 1));
      if (k % 3 == 1 && a != b) {
        // Grazing wall: parallel to the a-b ray, offset by a hair, so a
        // bounce between them is as long as the direct ray up to rounding.
        const double ux = x[b] - x[a], uy = y[b] - y[a];
        const double len = std::hypot(ux, uy);
        const double off = scene_id % 2 ? 1e-9 : 1e-4;
        w = {x[a] - ux - off * uy / len, y[a] - uy + off * ux / len,
             x[b] + ux - off * uy / len, y[b] + uy + off * ux / len, loss_db};
      } else if (k % 3 == 2) {
        w.x2_m = w.x1_m;  // zero-length wall
        w.y2_m = w.y1_m;
      }
      scene.walls.push_back(w);
    }
    // Nodes 4 and 5 sit 3 m apart with a torso parked on their direct leg.
    x[5] = x[4] + 3.0;
    y[5] = y[4];
    alive[4] = alive[5] = 1;
    scene.blockers.push_back(
        {x[4] + 1.5, y[4], 0.0, 0.0, 0.3, scene_id % 2 ? 30.0 : 4.0});
    const std::size_t n_blockers = std::size_t(rng.uniform_int(0, 2));
    for (std::size_t k = 0; k < n_blockers; ++k) {
      scene.blockers.push_back({rng.uniform(-2.0, 14.0), rng.uniform(-4.0, 6.0),
                                rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                                rng.uniform(0.2, 0.8), 25.0});
    }
    if (scene_id % 4 == 2) {
      // A lens (negative loss) on the first wall, which the bounce legs
      // through its middle cross and most direct legs miss.
      const auto& w = scene.walls.front();
      scene.blockers.push_back({0.5 * (w.x1_m + w.x2_m),
                                0.5 * (w.y1_m + w.y2_m), 0.0, 0.0, 0.6,
                                -20.0});
    }
    const double blockage_db = scene_id % 3 == 0 ? 18.0 : 0.0;
    const double ambient_db = scene_id % 4 == 1 ? 3.0 : 0.0;
    const double time_s = rng.uniform(0.0, 3.0);

    const auto got = build_neighbor_table(config, scene, blockage_db,
                                          ambient_db, x, y, alive, time_s);
    const auto want = reference_table(config, scene, blockage_db, ambient_db,
                                      x, y, alive, time_s);
    ASSERT_EQ(got.offset, want.offset) << "scene " << scene_id;
    ASSERT_EQ(got.links.size(), want.links.size()) << "scene " << scene_id;
    for (std::size_t k = 0; k < got.links.size(); ++k) {
      EXPECT_EQ(got.links[k].neighbor, want.links[k].neighbor);
      EXPECT_EQ(std::bit_cast<std::uint32_t>(got.links[k].margin_db),
                std::bit_cast<std::uint32_t>(want.links[k].margin_db))
          << "scene " << scene_id << " link " << k;
    }
    edges += got.edge_count();

    // The one-pair entry point is the same kernel, bit for bit, at any
    // distance; count the pairs where a bounce beats the direct ray.
    MultipathConfig no_walls = scene;
    no_walls.walls.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = (i * 7 + 3) % n;
      const double m = relay_link_margin_db(config, scene, blockage_db,
                                            ambient_db, x[i], y[i], x[j], y[j],
                                            time_s);
      EXPECT_EQ(bits(m), bits(reference_margin_db(config, scene, blockage_db,
                                                   ambient_db, x[i], y[i], x[j],
                                                   y[j], time_s)));
      const double direct_only = relay_link_margin_db(
          config, no_walls, blockage_db, ambient_db, x[i], y[i], x[j], y[j],
          time_s);
      if (m > direct_only) {
        ++bounce_wins;
        if (blockage_db == 0.0) ++wins_without_episode;
      }
    }
  }
  EXPECT_GT(edges, 1000u);
  // Bounces win somewhere, including with no blockage episode (gain walls,
  // lens blockers, blocked direct legs): the cut's preconditions matter.
  EXPECT_GT(bounce_wins, 10u);
  EXPECT_GT(wins_without_episode, 0u);
}

}  // namespace
}  // namespace milback::mesh
