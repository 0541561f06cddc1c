// Extension — cell capacity and latency under load.
//
// Sweeps the offered uplink load of a 6-tag cell from idle to 2x capacity
// and reports delivered goodput, mean/p95 latency and stability — the
// classic throughput/latency knee, here for a backscatter cell whose
// capacity is set by the Section-7 packet air time and the SDM schedule.
// Runs on the discrete-event cell engine (the MAC layer is a thin adapter
// over the same engine).
#include "bench_common.hpp"

#include "milback/cell/cell_engine.hpp"

using namespace milback;

int main(int argc, char** argv) {
  const auto seed = bench::parse_seed(argc, argv);
  bench::banner("Extension", "MAC: offered load vs goodput and latency (6-tag cell)",
                seed);

  // Fixed tag layout: bearings spread across the sector, mixed ranges.
  const std::vector<channel::NodePose> poses{
      {2.0, -30.0, 12.0}, {3.5, -18.0, -10.0}, {2.5, -4.0, 15.0},
      {4.5, 8.0, -14.0},  {3.0, 20.0, 10.0},   {5.5, 32.0, -8.0}};

  // Reference capacity from an idle probe. The environment stream is keyed,
  // so the probe and every load point below see the *same* room.
  const auto make_env = [&] { return Rng::stream(seed, std::uint64_t{1000}); };
  const auto make_engine = [&] {
    Rng env_rng = make_env();
    return cell::CellEngine(bench::make_indoor_channel(env_rng), cell::CellConfig{});
  };
  double capacity = 0.0;
  {
    auto probe = make_engine();
    for (std::size_t i = 0; i < poses.size(); ++i) {
      probe.add_node("t" + std::to_string(i), {.pose = poses[i], .arrival_rate_bps = 1.0});
    }
    capacity = probe.run(0.05, Rng::stream(seed, std::uint64_t{2000}).engine()())
                   .cell_capacity_bps;
  }
  std::cout << "Estimated cell capacity: " << Table::num(capacity / 1e6, 2)
            << " Mbps across " << poses.size() << " tags.\n\n";

  Table t({"offered/capacity", "delivered (Mbps)", "mean latency (us)",
           "p95 latency (us)", "stable"});
  CsvWriter csv(CsvWriter::env_dir(), "ext_mac_capacity",
                {"load_frac", "goodput_mbps", "mean_lat_us", "p95_lat_us", "stable"});
  // The load points are independent cells, so they run as one parallel
  // region; each engine's per-sweep fan-out nests inside it and runs inline.
  const std::vector<double> fracs{0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.5, 2.0};
  const auto reports = sim::TrialRunner().map<cell::CellReport>(
      fracs.size(), [&](std::size_t k) {
        auto engine = make_engine();  // same room every time
        const double per_node = fracs[k] * capacity / double(poses.size());
        for (std::size_t i = 0; i < poses.size(); ++i) {
          engine.add_node("t" + std::to_string(i),
                          {.pose = poses[i], .arrival_rate_bps = per_node});
        }
        return engine.run(0.5, Rng::stream(seed, k).engine()());
      });
  for (std::size_t k = 0; k < fracs.size(); ++k) {
    const double frac = fracs[k];
    const auto& report = reports[k];
    std::vector<double> lat, p95;
    for (const auto& n : report.nodes) {
      if (n.service_rate_bps > 0.0) {
        lat.push_back(n.mean_latency_s);
        p95.push_back(n.p95_latency_s);
      }
    }
    t.add_row({Table::num(frac, 1), Table::num(report.aggregate_goodput_bps / 1e6, 2),
               Table::num(mean(lat) * 1e6, 0), Table::num(max_value(p95) * 1e6, 0),
               report.stable ? "yes" : "NO"});
    csv.row({frac, report.aggregate_goodput_bps / 1e6, mean(lat) * 1e6,
             max_value(p95) * 1e6, report.stable ? 1.0 : 0.0});
  }
  t.print(std::cout);
  std::cout << "\nReading: goodput tracks offered load up to the capacity knee, then\n"
               "saturates while latency diverges and queues destabilize — the\n"
               "provisioning curve for a MilBack cell. Capacity itself is set by\n"
               "the fixed 225 us preamble per service visit; larger payloads move\n"
               "the knee up (see bench_ext_protocol_efficiency).\n";
  return 0;
}
