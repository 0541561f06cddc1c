// Figure 12b — Angle estimation accuracy (CDF).
//
// Paper setup: the AP estimates the node's bearing by comparing the phase of
// the backscattered baseband signal at its two RX antennas; trials across
// angles and distances. Paper result: median error 1.1 degrees, 90th
// percentile 2.5 degrees.
#include "bench_common.hpp"

#include <cmath>
#include <optional>

#include "milback/core/link.hpp"

using namespace milback;

namespace {

struct AnglePoint {
  double azimuth_deg = 0.0;
  double distance_m = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto seed = bench::parse_seed(argc, argv);
  bench::banner("Fig 12b", "Angle-of-arrival error CDF (two-antenna phase comparison)",
                seed);

  auto env_rng = Rng::stream(seed, bench::kEnvironmentStream);
  const core::MilBackLink link(bench::make_indoor_channel(env_rng), core::LinkConfig{});

  std::vector<AnglePoint> points;
  for (double az = -25.0; az <= 25.0 + 0.1; az += 5.0) {
    for (double d : {1.5, 2.0, 3.0}) points.push_back({az, d});
  }

  const sim::TrialRunner runner;
  const sim::Sweep<AnglePoint> sweep(std::move(points), 7);
  const auto outcomes = sweep.run<std::optional<double>>(
      runner,
      [&](const AnglePoint& pt, std::size_t p, std::size_t k) -> std::optional<double> {
        auto rng = Rng::stream(seed, p, k);
        const channel::NodePose pose{pt.distance_m, pt.azimuth_deg, 10.0};
        const auto r = link.localize(pose, rng);
        if (!r.detected || !r.aoa_offset_deg) return std::nullopt;
        return std::abs(r.angle_deg - pt.azimuth_deg);
      });

  sim::Accumulator acc;
  for (const auto& point_outcomes : outcomes) {
    acc.merge(sim::Accumulator::from(point_outcomes));
  }

  Table t({"percentile", "error (deg)", "paper (deg)"});
  t.add_row({"50 (median)", Table::num(acc.median(), 2), "1.1"});
  t.add_row({"90", Table::num(acc.percentile(90), 2), "2.5"});
  t.add_row({"99", Table::num(acc.percentile(99), 2), "-"});
  t.print(std::cout);

  std::cout << "\nCDF (" << acc.count() << " trials, " << acc.misses()
            << " misses):\n";
  Table cdf({"error <= (deg)", "fraction"});
  CsvWriter csv(CsvWriter::env_dir(), "fig12b_angle_cdf", {"error_deg", "cdf"});
  for (double e = 0.5; e <= 5.0 + 0.01; e += 0.5) {
    const double frac = acc.fraction_below(e);
    cdf.add_row({Table::num(e, 1), Table::num(frac, 3)});
    csv.row({e, frac});
  }
  cdf.print(std::cout);
  std::cout << "\nPaper: median 1.1 deg, 90th percentile 2.5 deg; improvable with a\n"
               "larger phased array at the AP.\n";
  return 0;
}
