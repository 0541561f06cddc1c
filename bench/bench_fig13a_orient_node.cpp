// Figure 13a — Orientation estimation at the node.
//
// Paper setup: node at 2 m, both ports absorptive, AP sends triangular FMCW
// chirps (45 us); the MCU samples both envelope detectors at 1 MS/s and
// converts the peak-pair separation to orientation, averaging the two ports;
// 25 trials per orientation, protractor ground truth. Paper result: mean
// error always below 3 degrees.
#include "bench_common.hpp"

#include <cmath>
#include <optional>

#include "milback/core/link.hpp"

using namespace milback;

int main(int argc, char** argv) {
  const auto seed = bench::parse_seed(argc, argv);
  bench::banner("Fig 13a", "Node-side orientation sensing error (25 trials/point)", seed);
  std::cout << "Ground-truth uncertainty: protractor sigma = "
            << bench::kProtractorSigmaDeg
            << " deg added, matching the paper's measurement chain.\n\n";

  auto env_rng = Rng::stream(seed, bench::kEnvironmentStream);
  const core::MilBackLink link(bench::make_indoor_channel(env_rng), core::LinkConfig{});

  Table t({"orientation (deg)", "mean err (deg)", "std (deg)", "max (deg)", "invalid",
           "paper bound"});
  CsvWriter csv(CsvWriter::env_dir(), "fig13a_orient_node",
                {"orientation_deg", "mean_deg", "std_deg", "max_deg"});

  const sim::TrialRunner runner;
  const sim::Sweep<double> sweep(
      {-25.0, -20.0, -15.0, -10.0, -5.0, 5.0, 10.0, 15.0, 20.0, 25.0}, 25);
  const auto outcomes = sweep.run<std::optional<double>>(
      runner,
      [&](double orient, std::size_t p, std::size_t trial) -> std::optional<double> {
        auto rng = Rng::stream(seed, p, trial);
        const channel::NodePose pose{2.0, 0.0, orient};
        const auto est = link.sense_orientation_at_node(pose, rng);
        if (!est) return std::nullopt;
        const double gt_jitter = rng.gaussian(0.0, bench::kProtractorSigmaDeg);
        return std::abs(est->orientation_deg - (orient + gt_jitter));
      });

  for (std::size_t p = 0; p < sweep.points().size(); ++p) {
    const double orient = sweep.points()[p];
    const auto acc = sim::Accumulator::from(outcomes[p]);
    t.add_row({Table::num(orient, 0), Table::num(acc.mean(), 2),
               Table::num(acc.stddev(), 2), Table::num(acc.max(), 2),
               std::to_string(acc.misses()), "< 3.0"});
    csv.row({orient, acc.mean(), acc.stddev(), acc.max()});
  }
  t.print(std::cout);
  std::cout << "\nPaper: mean error < 3 degrees at every orientation — comparable to\n"
               "smartphone IMU orientation accuracy (0.5-3 deg).\n";
  return 0;
}
