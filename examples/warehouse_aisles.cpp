// Warehouse aisles scenario — a rack-canyon mesh with anchor localization.
//
// The smart_warehouse example keeps every pallet tag inside the AP's ~11 m
// two-way budget. Real rack canyons do not cooperate: a 28 GHz ray that has
// to cross a loaded steel rack is gone, and an aisle runs a lot deeper than
// 11 m. This example turns on the mesh layer for exactly that geometry —
// two aisles of pallet tags marching away from the dock-mounted AP, where
// everything past the third bay is dark at every single-hop rate. Each
// aisle's first tags double as relays: interior tags hand their readings
// one bay inward per service sweep (2-3 hops) until a direct tag drains
// them to the AP. The rack faces themselves are the multipath scene — long
// steel reflectors that carry relay links around a parked forklift — and a
// mid-run blockage episode (a truck at the dock door) forces a reroute.
// Three surveyed tags anchor DV-hop fusion, so even the deepest pallets
// report a bay-accurate position without ever seeing the radar.
//
// Build & run:  ./build/examples/warehouse_aisles [seed]
#include <iostream>
#include <string>
#include <vector>

#include "milback/cell/cell_engine.hpp"
#include "milback/channel/multipath.hpp"
#include "milback/mesh/mesh.hpp"
#include "milback/util/cli.hpp"
#include "milback/util/table.hpp"
#include "milback/util/units.hpp"

using namespace milback;

int main(int argc, char** argv) {
  const std::uint64_t seed = parse_seed(argc, argv, 42);
  Rng env_rng(5);
  cell::CellEngine engine(channel::BackscatterChannel::make_default(
                              channel::Environment::indoor_office(env_rng)),
                          cell::CellConfig{});

  // Two aisles leaving the dock AP: aisle A straight out (azimuth 0), aisle
  // B splayed 40 degrees. Pallet tags sit every 6 m from the first bay at
  // 2 m out to the back wall at 20 m; everything past ~11 m is dark.
  struct Bay {
    const char* id;
    double distance_m;
    double azimuth_deg;
  };
  const std::vector<Bay> bays{
      {"A1", 2.0, 0.0},  {"A2", 8.0, 0.0},  {"A3", 14.0, 0.0},
      {"A4", 20.0, 0.0}, {"B1", 2.0, 40.0}, {"B2", 8.0, 40.0},
      {"B3", 14.0, 40.0}, {"B4", 20.0, 40.0}};
  for (const auto& bay : bays) {
    engine.add_node(bay.id, {.pose = {bay.distance_m, bay.azimuth_deg, 12.0},
                             .arrival_rate_bps = 30e3});
  }

  // The racks: two long steel faces flanking aisle A. They are first-order
  // specular reflectors in the PathSet, so a relay link whose direct ray is
  // blocked can ride a rack bounce instead.
  channel::MultipathConfig scene;
  scene.walls.push_back({0.5, 1.6, 20.5, 1.6, 2.0});    // rack face, left
  scene.walls.push_back({0.5, -1.6, 20.5, -1.6, 2.0});  // rack face, right
  // A forklift parked mid-aisle from t = 0.1 s (it crawls, effectively
  // static for the run) grazes the A2-A3 relay leg.
  scene.blockers.push_back({11.0, 0.3, 0.2, 0.0, 0.5, 30.0});
  engine.set_multipath(scene);
  // A truck fills the dock door mid-run: 18 dB across every AP ray.
  engine.schedule_blockage(0.12, 0.18, 18.0);

  // Mesh: pallet tags sit close together in the canyon, so give the
  // node-node budget more headroom than the cross-cell default — enough
  // that the rack-bounce path survives the forklift. Bay-1 and bay-2 tags
  // are surveyed anchors (plan positions known from the rack drawings).
  mesh::MeshConfig mc;
  mc.relay_snr_at_1m_db = 31.0;
  mc.anchors = {{0, 2.0, 0.0},
                {1, 8.0, 0.0},
                {5, 8.0 * std::cos(deg2rad(40.0)), 8.0 * std::sin(deg2rad(40.0))}};
  engine.set_mesh(mc);

  const auto report = engine.run(0.4, seed);

  Table t({"bay", "hops", "via", "offered (kb)", "delivered", "e2e lat (ms)",
           "fix", "est (m,m)", "err (m)"});
  for (std::size_t i = 0; i < bays.size(); ++i) {
    const auto& n = report.nodes[i];
    const auto& m = report.mesh.nodes[i];
    const double frac =
        n.offered_bits > 0 ? n.delivered_bits / n.offered_bits : 0.0;
    const std::string via =
        m.hop_count == 1
            ? "AP"
            : (m.next_hop == mesh::kNoNode
                   ? "-"
                   : std::string(report.nodes[m.next_hop].id.view()));
    const std::string fix =
        !m.localized ? "none" : (m.radar_fix ? "radar" : "dv-hop");
    const double lat_ms = m.hop_count > 1 ? 1e3 * m.mean_relay_latency_s
                                          : 1e3 * n.mean_latency_s;
    t.add_row({std::string(n.id.view()), Table::num(double(m.hop_count), 0), via,
               Table::num(n.offered_bits / 1e3, 1),
               Table::num(100.0 * frac, 0) + "%", Table::num(lat_ms, 2), fix,
               "(" + Table::num(m.est_x_m, 1) + ", " + Table::num(m.est_y_m, 1) +
                   ")",
               Table::num(m.pos_error_m, 1)});
  }
  t.print(std::cout);

  std::cout << "\nMesh: " << report.mesh.connected << "/"
            << report.mesh.population << " tags connected, max "
            << report.mesh.max_hop_count << " hops, "
            << report.mesh.discoveries << " discoveries ("
            << report.mesh.reroutes << " reroutes), " << report.mesh.forwards
            << " relay forwards, "
            << Table::num(report.mesh.relayed_bits / 1e3, 1)
            << " kb relayed, peak relay queue "
            << Table::num(report.mesh.peak_relay_queue_bits, 0) << " bits.\n";
  std::cout << "\nThe A3/A4 and B3/B4 pallets never see the AP: their rows\n"
               "show 2-3 hops through the bay-2 and bay-3 tags, a service\n"
               "sweep of extra latency per hop, and a DV-hop position fix\n"
               "good to the bay. The dock-door blockage at t = 0.12 s kills\n"
               "the direct tags' rates, so the discovery count includes the\n"
               "reroutes the mesh ran when the canyon topology changed.\n";
  return 0;
}
