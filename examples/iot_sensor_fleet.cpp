// IoT sensor fleet scenario — duty-cycled telemetry and battery life.
//
// The paper's closing argument: "future mmWave access points ... can
// directly communicate to low-power IoT devices". This example runs a
// temperature-sensor node through a day-scale duty cycle: it sleeps at
// microwatts, wakes for one packet exchange per reporting interval, and the
// harness projects battery life from the measured per-packet energy — then
// contrasts reporting rates and payload sizes. A fleet phase runs eight
// sensors through the discrete-event cell engine with a staggered rollout
// (half the fleet powers on mid-run) to show the cell absorbing deployment
// churn.
//
// Build & run:  ./build/examples/iot_sensor_fleet [seed]
#include <iostream>

#include "milback/cell/cell_engine.hpp"
#include "milback/core/energy.hpp"
#include "milback/core/link.hpp"
#include "milback/util/cli.hpp"
#include "milback/util/table.hpp"

using namespace milback;

int main(int argc, char** argv) {
  const std::uint64_t seed = parse_seed(argc, argv, 31);
  auto env_rng = Rng::stream(seed, 1);
  const core::MilBackLink link(channel::BackscatterChannel::make_default(
                                   channel::Environment::indoor_office(env_rng)),
                               core::LinkConfig{});

  const channel::NodePose pose{5.0, -10.0, 12.0};
  std::cout << "Sensor node at " << pose.distance_m << " m; each report is one\n"
               "Section-7 uplink packet carrying the sensor payload.\n\n";

  // One real exchange to verify the link and measure energy.
  auto rng = Rng::stream(seed, 2);
  auto data = Rng::stream(seed, 3);
  const auto bits = data.bits(512);
  const auto pkt = link.run_packet(pose, core::LinkDirection::kUplink, bits, rng);
  if (!pkt.direction_ok || !pkt.uplink || pkt.uplink->bit_errors > 0) {
    std::cout << "warning: reference packet was not error-free\n";
  }
  std::cout << "Reference packet: " << Table::num(pkt.timing.total_s * 1e6, 1)
            << " us on air, " << Table::num(pkt.node_energy_j * 1e6, 2)
            << " uJ at the node, payload BER "
            << (pkt.uplink ? Table::sci(pkt.uplink->ber, 1) : "-") << "\n\n";

  // Battery-life projection across duty cycles (220 mWh coin cell).
  const auto& pw = link.node().config().power;
  Table t({"reports/hour", "payload (bits)", "packet energy (uJ)", "avg power (uW)",
           "CR2032 life (days)"});
  for (const double per_hour : {6.0, 60.0, 600.0, 3600.0}) {
    for (const std::size_t payload_bits : {128u, 512u, 4096u}) {
      core::PacketConfig pc = link.config().packet;
      pc.payload_symbols = payload_bits / 2;
      const auto timing =
          core::compute_timing(pc, core::LinkDirection::kUplink, 5e6);
      const double e_pkt =
          core::packet_node_energy_j(timing, core::LinkDirection::kUplink, pw, 5e6);
      const double rate_hz = per_hour / 3600.0;
      const double avg_w = e_pkt * rate_hz + pw.idle_power_w;
      const double life_h = core::battery_life_hours(e_pkt, rate_hz, 220.0,
                                                     pw.idle_power_w);
      t.add_row({Table::num(per_hour, 0), std::to_string(payload_bits),
                 Table::num(e_pkt * 1e6, 2), Table::num(avg_w * 1e6, 1),
                 Table::num(life_h / 24.0, 0)});
    }
  }
  t.print(std::cout);

  // --- Fleet telemetry on the cell engine: eight sensors, staggered rollout.
  std::cout << "\nFleet rollout (cell engine, 0.4 s compressed timeline):\n";
  auto fleet_env = Rng::stream(seed, 1);  // same room as the reference packet
  cell::CellEngine fleet(channel::BackscatterChannel::make_default(
                             channel::Environment::indoor_office(fleet_env)),
                         cell::CellConfig{});
  for (std::size_t i = 0; i < 8; ++i) {
    const channel::NodePose p{2.5 + 0.5 * double(i), -35.0 + 10.0 * double(i),
                              12.0 - 2.0 * double(i % 3)};
    // Sensors 4..7 are installed mid-run.
    const double join_s = i >= 4 ? 0.15 + 0.02 * double(i - 4) : 0.0;
    fleet.add_node("sensor-" + std::to_string(i),
                   {.pose = p, .arrival_rate_bps = 50e3}, join_s);
  }
  const auto fr = fleet.run(0.4, Rng::stream(seed, 4).engine()());
  Table ft({"sensor", "joined (s)", "rounds served", "delivered (kbit)",
            "service rate"});
  for (const auto& n : fr.nodes) {
    ft.add_row({std::string(n.id.view()), Table::num(n.join_time_s, 2), std::to_string(n.rounds_served),
                Table::num(n.delivered_bits / 1e3, 1),
                n.service_rate_bps > 0.0
                    ? Table::num(n.service_rate_bps / 1e6, 0) + " Mbps"
                    : "out of range"});
  }
  ft.print(std::cout);
  std::cout << "  " << fr.service_rounds << " service rounds, "
            << (fr.stable ? "stable" : "UNSTABLE") << ", aggregate "
            << Table::num(fr.aggregate_goodput_bps / 1e3, 1) << " kbps\n";

  std::cout << "\nReading: at typical IoT duty cycles the idle floor dominates —\n"
               "years of life on a coin cell — because communication itself costs\n"
               "only microjoules per packet. An always-on active mmWave radio\n"
               "(~1 W class) would drain the same cell in under an hour.\n";
  return 0;
}
