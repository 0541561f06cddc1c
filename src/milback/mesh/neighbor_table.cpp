#include "milback/mesh/neighbor_table.hpp"

#include <algorithm>
#include <cmath>

#include "milback/channel/propagation.hpp"
#include "milback/core/contract.hpp"

namespace milback::mesh {

std::span<const NeighborLink> NeighborTable::neighbors(std::size_t i) const {
  MILBACK_REQUIRE(i + 1 < offset.size(), "NeighborTable::neighbors: index out of range");
  return {links.data() + offset[i], links.data() + offset[i + 1]};
}

namespace {

// Smallest wall reflection loss [dB] that lets the direct-dominance cut skip
// a pair's walls. Rounding in the summed bounce legs and in the FSPL log
// can put a bounce's spreading loss a few ulps (far below 1e-9 dB at any
// representable length) under the direct ray's; a bounce loss above this
// bound always pays that back.
constexpr double kDominanceEpsDb = 1e-6;

// Relative slack on the squared-cutoff reject. dx² + dy² and hypot(dx, dy)
// each round by a few ulps (~1e-15 relative), so every pair that the exact
// hypot test accepts passes this reject; the slack only lets a sliver more
// through to that test.
constexpr double kPrefilterSlack = 1e-6;

// The scene in one source node's frame. Paths are traced with the source at
// the origin, so every wall endpoint and blocker center is shifted by the
// source position (velocities are frame-independent). Filled once per
// source row into storage the build reuses.
struct SourceFrame {
  std::vector<channel::WallSegment> walls;
  std::vector<channel::MovingBlocker> blockers;

  void translate(const channel::MultipathConfig& scene, double x1_m,
                 double y1_m) {
    walls.clear();
    for (const auto& w : scene.walls) {
      walls.push_back({w.x1_m - x1_m, w.y1_m - y1_m, w.x2_m - x1_m,
                       w.y2_m - y1_m, w.reflection_loss_db});
    }
    blockers.clear();
    for (const auto& b : scene.blockers) {
      blockers.push_back({b.x_m - x1_m, b.y_m - y1_m, b.vx_mps, b.vy_mps,
                          b.radius_m, b.penetration_loss_db});
    }
  }
};

// One pair's relay margin over the channel-layer path geometry, with
// everything that is fixed for a build (losses, time, FSPL anchor, whether
// the scene allows the dominance cut) bound once.
class PairKernel {
 public:
  PairKernel(const MeshConfig& config, const channel::MultipathConfig& scene,
             double blockage_loss_db, double ambient_loss_db, double time_s)
      : config_(config),
        ref_db_(channel::fspl_db(1.0, config.carrier_hz)),
        blockage_loss_db_(blockage_loss_db),
        ambient_loss_db_(ambient_loss_db),
        time_s_(time_s) {
    for (const auto& w : scene.walls) {
      bounces_lossy_ = bounces_lossy_ && w.reflection_loss_db > kDominanceEpsDb;
    }
    for (const auto& b : scene.blockers) {
      bounces_lossy_ = bounces_lossy_ && b.penetration_loss_db >= 0.0;
    }
  }

  // Margin of the pair whose node sits at (nx, ny) in `frame`, `d_m` =
  // hypot(nx, ny) away from the source.
  double margin_db(const SourceFrame& frame, double nx, double ny,
                   double d_m) const {
    // Blockage hits only the direct leg (a wall routes around it, same as
    // AP links); ambient loss hits every path.
    const double direct_blocker_db = channel::leg_blocker_loss_db(
        frame.blockers, 0.0, 0.0, nx, ny, time_s_);
    double best_snr_db =
        std::max(-1e9, config_.relay_snr_at_1m_db -
                           (excess_db(d_m, 0.0, direct_blocker_db) +
                            blockage_loss_db_));

    // Direct-dominance cut. A bounce path (its two legs summed) is never
    // shorter than the direct ray (triangle inequality through the specular
    // point), so its spreading loss is no smaller up to rounding; it adds a
    // reflection loss above kDominanceEpsDb, which covers that rounding, and
    // a non-negative blocker loss. With no blocker loss and no blockage episode on the
    // direct leg, each bounce's excess is therefore >= the direct one's in
    // floating point (rounded adds are monotone), its SNR is <= the direct
    // SNR, and `max` over them returns the direct value bit for bit.
    if (bounces_lossy_ && direct_blocker_db == 0.0 && blockage_loss_db_ == 0.0) {
      return best_snr_db - config_.relay_min_snr_db;
    }
    for (const auto& w : frame.walls) {
      channel::SpecularBounce b;
      if (!channel::specular_bounce(w, nx, ny, &b)) continue;
      const double blocker_db =
          channel::leg_blocker_loss_db(frame.blockers, 0.0, 0.0, b.hit_x_m,
                                       b.hit_y_m, time_s_) +
          channel::leg_blocker_loss_db(frame.blockers, b.hit_x_m, b.hit_y_m,
                                       nx, ny, time_s_);
      best_snr_db = std::max(
          best_snr_db,
          config_.relay_snr_at_1m_db -
              excess_db(b.length_m, w.reflection_loss_db, blocker_db));
    }
    return best_snr_db - config_.relay_min_snr_db;
  }

 private:
  // Spreading loss relative to the 1 m anchor plus the path's losses.
  double excess_db(double length_m, double bounce_loss_db,
                   double blocker_loss_db) const {
    return channel::fspl_db(std::max(length_m, 0.01), config_.carrier_hz) -
           ref_db_ + bounce_loss_db + blocker_loss_db + ambient_loss_db_;
  }

  const MeshConfig& config_;
  double ref_db_;
  double blockage_loss_db_;
  double ambient_loss_db_;
  double time_s_;
  // Every wall loses more than kDominanceEpsDb and no blocker has a
  // negative loss: the scene side of the dominance cut's precondition.
  bool bounces_lossy_ = true;
};

}  // namespace

double relay_link_margin_db(const MeshConfig& config,
                            const channel::MultipathConfig& scene,
                            double blockage_loss_db, double ambient_loss_db,
                            double x1_m, double y1_m, double x2_m, double y2_m,
                            double time_s) {
  require_positive(config.carrier_hz, "carrier_hz");
  require_non_negative(blockage_loss_db, "blockage_loss_db");
  require_non_negative(ambient_loss_db, "ambient_loss_db");
  require_finite(x1_m, "x1_m");
  require_finite(y1_m, "y1_m");
  require_finite(x2_m, "x2_m");
  require_finite(y2_m, "y2_m");
  require_finite(time_s, "time_s");

  SourceFrame frame;
  frame.translate(scene, x1_m, y1_m);
  const double nx = x2_m - x1_m;
  const double ny = y2_m - y1_m;
  return PairKernel(config, scene, blockage_loss_db, ambient_loss_db, time_s)
      .margin_db(frame, nx, ny, std::hypot(nx, ny));
}

double max_relay_range_m(const MeshConfig& config) {
  require_positive(config.carrier_hz, "carrier_hz");
  // fspl(d) - fspl(1 m) = 20 log10(d), so the budget closes out to
  // d = 10^(headroom / 20). Clamped below at the near-field floor.
  const double headroom_db =
      config.relay_snr_at_1m_db - config.relay_min_snr_db;
  return std::max(0.01, std::pow(10.0, headroom_db / 20.0));
}

NeighborTable build_neighbor_table(const MeshConfig& config,
                                   const channel::MultipathConfig& scene,
                                   double blockage_loss_db,
                                   double ambient_loss_db,
                                   std::span<const double> x_m,
                                   std::span<const double> y_m,
                                   std::span<const std::uint8_t> alive,
                                   double time_s) {
  const std::size_t n = x_m.size();
  MILBACK_REQUIRE(y_m.size() == n && alive.size() == n,
                  "build_neighbor_table: column sizes must match");
  require_non_negative(blockage_loss_db, "blockage_loss_db");
  require_non_negative(ambient_loss_db, "ambient_loss_db");
  require_finite(time_s, "time_s");
  for (std::size_t i = 0; i < n; ++i) {
    if (!alive[i]) continue;
    require_finite(x_m[i], "x_m");
    require_finite(y_m[i], "y_m");
  }
  NeighborTable table;
  table.offset.assign(n + 1, 0);

  // Two-stage prefilter. The bound is exact for the direct ray and
  // conservative for bounce paths (longer and lossier), so pairs beyond it
  // cannot form an edge; a small slack absorbs the margin-vs-threshold
  // boundary. The squared-distance reject drops far pairs without a hypot;
  // the survivors take the exact hypot test, whose value is also the
  // direct-ray length.
  const double cutoff_m = max_relay_range_m(config) + 1e-9;
  const double reject_d2_m2 = cutoff_m * cutoff_m * (1.0 + kPrefilterSlack);
  const PairKernel kernel(config, scene, blockage_loss_db, ambient_loss_db,
                          time_s);
  SourceFrame frame;
  for (std::size_t i = 0; i < n; ++i) {
    if (alive[i]) {
      frame.translate(scene, x_m[i], y_m[i]);
      for (std::size_t j = 0; j < n; ++j) {
        if (j == i || !alive[j]) continue;
        const double dx = x_m[j] - x_m[i];
        const double dy = y_m[j] - y_m[i];
        if (dx * dx + dy * dy > reject_d2_m2) continue;
        const double d = std::hypot(dx, dy);
        if (d > cutoff_m) continue;
        const double margin_db = kernel.margin_db(frame, dx, dy, d);
        if (margin_db < 0.0) continue;
        table.links.push_back({std::uint32_t(j), float(margin_db)});
      }
    }
    table.offset[i + 1] = std::uint32_t(table.links.size());
  }
  MILBACK_ENSURE(table.offset.back() == table.links.size(),
                 "build_neighbor_table: CSR offsets must cover all links");
  return table;
}

}  // namespace milback::mesh
