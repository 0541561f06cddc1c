#include "milback/channel/multipath.hpp"

#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/util/rng.hpp"
#include "milback/util/units.hpp"

namespace milback::channel {

namespace {

// Minimum usable leg length: below this the specular point coincides with
// a terminal and the "bounce" degenerates into the direct ray.
constexpr double kMinLegM = 0.05;

// Relative band around a disc's rim inside which `segment_hits_disc` falls
// back to the hypot. The squared offset and the hypot each round by a few
// ulps (~1e-15 relative), so outside the band both give the same answer.
constexpr double kRimSlack = 1e-6;

// True when the segment (ax,ay)-(bx,by) passes through the disc centered at
// (cx, cy) with radius r: the distance from the center to the closest point
// of the segment, hypot(ex, ey), is at most r. The squared offset settles
// every case clear of the rim without the hypot; radii outside
// [1e-100, 1e100], whose square could leave the normal range, always take
// the hypot.
bool segment_hits_disc(double ax, double ay, double bx, double by, double cx,
                       double cy, double r) {
  const double ux = bx - ax;
  const double uy = by - ay;
  const double len2 = ux * ux + uy * uy;
  double t = 0.0;
  if (len2 > 0.0) {
    t = ((cx - ax) * ux + (cy - ay) * uy) / len2;
    t = std::min(std::max(t, 0.0), 1.0);
  }
  const double ex = cx - (ax + t * ux);
  const double ey = cy - (ay + t * uy);
  if (r >= 1e-100 && r <= 1e100) {
    const double q = ex * ex + ey * ey;
    const double r2 = r * r;
    if (q > r2 * (1.0 + kRimSlack)) return false;
    if (q < r2 * (1.0 - kRimSlack)) return true;
  }
  return std::hypot(ex, ey) <= r;
}

}  // namespace

// milback-analyze: no-contract(total over any geometry: a non-finite input yields no bounce; trace_paths and the mesh validate coordinates first)
bool specular_bounce(const WallSegment& w, double nx, double ny,
                     SpecularBounce* out) {
  const double ux = w.x2_m - w.x1_m;
  const double uy = w.y2_m - w.y1_m;
  const double len2 = ux * ux + uy * uy;
  if (len2 <= 0.0) return false;

  // Signed side of the wall line: the source (origin) and the node must sit
  // on the same side for a specular bounce to exist.
  const double side_ap = ux * (0.0 - w.y1_m) - uy * (0.0 - w.x1_m);
  const double side_node = ux * (ny - w.y1_m) - uy * (nx - w.x1_m);
  if (side_ap * side_node <= 0.0) return false;

  // Reflect the node across the wall line to get its image.
  const double wx = nx - w.x1_m;
  const double wy = ny - w.y1_m;
  const double proj = (wx * ux + wy * uy) / len2;
  const double footx = w.x1_m + proj * ux;
  const double footy = w.y1_m + proj * uy;
  const double ix = 2.0 * footx - nx;
  const double iy = 2.0 * footy - ny;

  // Intersect the source -> image ray with the physical segment:
  // s * (ix, iy) = (x1, y1) + t * (ux, uy).
  const double det = ix * (-uy) - iy * (-ux);
  if (std::abs(det) < 1e-12) return false;  // ray parallel to the wall
  const double s = (w.x1_m * (-uy) - w.y1_m * (-ux)) / det;
  const double t = (ix * w.y1_m - iy * w.x1_m) / det;
  if (s <= 0.0 || s >= 1.0) return false;  // image behind the source or past it
  if (t < 0.0 || t > 1.0) return false;    // specular point off the segment

  const double hx = s * ix;
  const double hy = s * iy;
  const double d_ah = std::hypot(hx, hy);
  const double d_hn = std::hypot(nx - hx, ny - hy);
  if (d_ah < kMinLegM || d_hn < kMinLegM) return false;

  out->length_m = d_ah + d_hn;
  out->hit_x_m = hx;
  out->hit_y_m = hy;
  return true;
}

// milback-analyze: no-contract(total over any geometry and any blocker list, including empty)
double leg_blocker_loss_db(std::span<const MovingBlocker> blockers, double ax,
                           double ay, double bx, double by, double time_s) {
  double loss = 0.0;
  for (const auto& b : blockers) {
    const double cx = b.x_m + b.vx_mps * time_s;
    const double cy = b.y_m + b.vy_mps * time_s;
    if (segment_hits_disc(ax, ay, bx, by, cx, cy, b.radius_m)) {
      loss += b.penetration_loss_db;
    }
  }
  return loss;
}

MultipathConfig MultipathConfig::office_walls(std::uint64_t seed,
                                              std::size_t n_walls) {
  MILBACK_REQUIRE(n_walls <= 64, "office_walls: at most 64 walls");
  MultipathConfig config;
  config.walls.reserve(n_walls);
  for (std::size_t k = 0; k < n_walls; ++k) {
    Rng rng = Rng::stream(seed, kMultipathStreamTag,
                          static_cast<std::uint64_t>(k));
    const double bearing_rad = deg2rad(rng.uniform(0.0, 360.0));
    const double range_m = rng.uniform(4.0, 10.0);
    const double half_len_m = rng.uniform(1.5, 3.0);
    // Tangential orientation (facing the AP) with a +/- 20 degree tilt.
    const double tilt_rad =
        bearing_rad + deg2rad(90.0) + deg2rad(rng.uniform(-20.0, 20.0));
    const double cx = range_m * std::cos(bearing_rad);
    const double cy = range_m * std::sin(bearing_rad);
    WallSegment w;
    w.x1_m = cx - half_len_m * std::cos(tilt_rad);
    w.y1_m = cy - half_len_m * std::sin(tilt_rad);
    w.x2_m = cx + half_len_m * std::cos(tilt_rad);
    w.y2_m = cy + half_len_m * std::sin(tilt_rad);
    w.reflection_loss_db = rng.uniform(8.0, 14.0);
    config.walls.push_back(w);
  }
  MILBACK_ENSURE(config.walls.size() == n_walls, "office_walls: wall count");
  return config;
}

const PropPath& PathSet::direct() const {
  MILBACK_REQUIRE(!paths.empty() && paths.front().bounces == 0,
                  "PathSet: direct path missing");
  return paths.front();
}

std::size_t PathSet::active_count() const noexcept {
  std::size_t n = 0;
  for (const auto& p : paths) n += p.severed() ? 0 : 1;
  return n;
}

std::size_t PathSet::severed_count() const noexcept {
  return paths.size() - active_count();
}

PathSet trace_paths(const MultipathConfig& config, double node_x_m,
                    double node_y_m, double time_s) {
  require_finite(node_x_m, "node_x_m");
  require_finite(node_y_m, "node_y_m");
  require_finite(time_s, "time_s");

  PathSet set;
  set.paths.reserve(1 + config.walls.size());

  PropPath direct;
  direct.length_m = std::hypot(node_x_m, node_y_m);
  direct.aoa_deg = rad2deg(std::atan2(node_y_m, node_x_m));
  direct.aod_deg = rad2deg(std::atan2(-node_y_m, -node_x_m));
  direct.blocker_loss_db = leg_blocker_loss_db(config.blockers, 0.0, 0.0,
                                               node_x_m, node_y_m, time_s);
  set.paths.push_back(direct);

  for (std::size_t w = 0; w < config.walls.size(); ++w) {
    SpecularBounce b;
    if (!specular_bounce(config.walls[w], node_x_m, node_y_m, &b)) continue;
    PropPath p;
    p.length_m = b.length_m;
    p.aoa_deg = rad2deg(std::atan2(b.hit_y_m, b.hit_x_m));
    p.aod_deg = rad2deg(std::atan2(b.hit_y_m - node_y_m, b.hit_x_m - node_x_m));
    p.bounce_loss_db = config.walls[w].reflection_loss_db;
    p.bounces = 1;
    p.wall = static_cast<int>(w);
    p.hit_x_m = b.hit_x_m;
    p.hit_y_m = b.hit_y_m;
    p.blocker_loss_db =
        leg_blocker_loss_db(config.blockers, 0.0, 0.0, b.hit_x_m, b.hit_y_m,
                            time_s) +
        leg_blocker_loss_db(config.blockers, b.hit_x_m, b.hit_y_m, node_x_m,
                            node_y_m, time_s);
    set.paths.push_back(p);
  }

  MILBACK_ENSURE(!set.paths.empty() && set.paths.front().bounces == 0,
                 "trace_paths: direct path first");
  return set;
}

bool nlos_unfold(const WallSegment& wall, double path_length_m, double aoa_deg,
                 double* node_x_m, double* node_y_m) {
  require_positive(path_length_m, "path_length_m");
  require_finite(aoa_deg, "aoa_deg");
  MILBACK_REQUIRE(node_x_m != nullptr && node_y_m != nullptr,
                  "nlos_unfold: null output");
  const double dx = std::cos(deg2rad(aoa_deg));
  const double dy = std::sin(deg2rad(aoa_deg));
  const double ux = wall.x2_m - wall.x1_m;
  const double uy = wall.y2_m - wall.y1_m;
  const double len2 = ux * ux + uy * uy;
  if (len2 <= 0.0) return false;

  // Intersect the AP ray r * (dx, dy) with the segment (x1,y1) + t (ux,uy).
  const double det = dx * (-uy) - dy * (-ux);
  if (std::abs(det) < 1e-12) return false;
  const double r = (wall.x1_m * (-uy) - wall.y1_m * (-ux)) / det;
  const double t = (dx * wall.y1_m - dy * wall.x1_m) / det;
  if (r <= 0.0 || t < 0.0 || t > 1.0) return false;  // ray misses the wall
  if (r >= path_length_m) return false;  // wall beyond the measured range

  const double hx = r * dx;
  const double hy = r * dy;
  // Reflect the incoming direction across the wall normal and continue for
  // the remaining length (unfolding the image path back into the room).
  const double inv_len2 = 1.0 / len2;
  const double along = (dx * ux + dy * uy) * inv_len2;
  const double rx = 2.0 * along * ux - dx;
  const double ry = 2.0 * along * uy - dy;
  const double rest = path_length_m - r;
  *node_x_m = hx + rest * rx;
  *node_y_m = hy + rest * ry;
  return true;
}

}  // namespace milback::channel
