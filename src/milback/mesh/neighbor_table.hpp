// Mesh neighbor table: pairwise relay-link margins over the multipath
// path geometry.
//
// A relay edge (i, j) exists when the best surviving propagation path
// between the two nodes clears the relay SNR threshold. Paths are evaluated
// with the channel layer's own primitives (`channel::specular_bounce`,
// `channel::leg_blocker_loss_db` — the geometry `trace_paths` is built
// from), so the SAME walls that carry an AP link around a blocked direct
// ray carry a relay edge, and the SAME moving blockers that sever AP links
// sever mesh edges. A cell-wide blockage episode applies its loss to the
// direct leg of every pair (like AP links); ambient/co-channel loss applies
// to every path.
//
// The build translates the scene into node i's frame once per alive source
// row and evaluates all of the row's candidate pairs against it, with no
// per-pair allocation. A two-stage distance prefilter (squared-distance
// reject, then the exact hypot bound) picks the candidates, and a pair
// whose direct leg is unblocked skips its walls when no bounce can beat the
// direct ray (see the dominance cut in neighbor_table.cpp). Every step is
// exact: margins are bit-identical to tracing each pair's full PathSet.
//
// The table is CSR-shaped (offset + flat link array, both in node-index
// order), so iterating it is deterministic by construction — no hash
// containers anywhere near the route tables (analyzer check A2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "milback/channel/multipath.hpp"
#include "milback/mesh/mesh.hpp"

namespace milback::mesh {

/// One directed relay link out of a node.
struct NeighborLink {
  std::uint32_t neighbor = kNoNode;
  float margin_db = 0.0f;  ///< Link SNR minus relay_min_snr_db (>= 0).
};

/// CSR adjacency over node indices. Links of node i occupy
/// [offset[i], offset[i+1]) of `links`, sorted by neighbor index.
struct NeighborTable {
  std::vector<std::uint32_t> offset;  ///< Size node_count() + 1.
  std::vector<NeighborLink> links;

  std::size_t node_count() const noexcept {
    return offset.empty() ? 0 : offset.size() - 1;
  }
  std::size_t edge_count() const noexcept { return links.size(); }

  /// Links out of node `i`, neighbor-index order.
  std::span<const NeighborLink> neighbors(std::size_t i) const;

  /// Bytes reserved by the CSR arrays (capacity — the mesh's share of the
  /// per-node byte budget).
  std::size_t allocated_bytes() const noexcept {
    return offset.capacity() * sizeof(std::uint32_t) +
           links.capacity() * sizeof(NeighborLink);
  }
};

/// Link margin [dB] of the node pair at plan positions (x1, y1) -> (x2, y2):
/// relay SNR over the best surviving path minus `config.relay_min_snr_db`.
/// Negative means no edge. Pure function of (config, scene, losses,
/// geometry, time) — bit-identical at any thread count. This is the
/// one-pair case of `build_neighbor_table`'s row kernel.
double relay_link_margin_db(const MeshConfig& config,
                            const channel::MultipathConfig& scene,
                            double blockage_loss_db, double ambient_loss_db,
                            double x1_m, double y1_m, double x2_m, double y2_m,
                            double time_s);

/// Largest direct distance [m] at which a pair can still clear the relay
/// threshold under `config` (the O(N^2) prefilter bound: any path between a
/// pair is at least as long as the direct ray and only adds loss).
double max_relay_range_m(const MeshConfig& config);

/// Builds the table over every alive node pair (dead rows get no links).
/// All spans are node-index order and must share one size. Every alive
/// node's coordinates and `time_s` must be finite (ContractViolation
/// otherwise); dead rows are not read beyond their `alive` flag.
NeighborTable build_neighbor_table(const MeshConfig& config,
                                   const channel::MultipathConfig& scene,
                                   double blockage_loss_db,
                                   double ambient_loss_db,
                                   std::span<const double> x_m,
                                   std::span<const double> y_m,
                                   std::span<const std::uint8_t> alive,
                                   double time_s);

}  // namespace milback::mesh
