// Figure 13b — Orientation estimation at the AP.
//
// Paper setup: node at 2 m; port B absorbs while port A toggles across
// chirps; the AP background-subtracts, IFFTs, and reads the reflected-power
// peak across the FMCW band; 25 trials per orientation. Paper result: mean
// error < 1.5 degrees for most orientations, degraded (up to ~3 degrees) at
// -6..-2 degrees where the node's ground-plane mirror reflection collides
// with the modulated backscatter and survives subtraction.
#include "bench_common.hpp"

#include <cmath>
#include <optional>

#include "milback/core/link.hpp"

using namespace milback;

int main(int argc, char** argv) {
  const auto seed = bench::parse_seed(argc, argv);
  bench::banner("Fig 13b", "AP-side orientation sensing error (25 trials/point)", seed);
  std::cout << "Ground-truth uncertainty: protractor sigma = "
            << bench::kProtractorSigmaDeg << " deg added.\n\n";

  auto env_rng = Rng::stream(seed, bench::kEnvironmentStream);
  const core::MilBackLink link(bench::make_indoor_channel(env_rng), core::LinkConfig{});

  Table t({"orientation (deg)", "mean err (deg)", "std (deg)", "invalid", "note"});
  CsvWriter csv(CsvWriter::env_dir(), "fig13b_orient_ap",
                {"orientation_deg", "mean_deg", "std_deg"});

  const sim::TrialRunner runner;
  const sim::Sweep<double> sweep({-25.0, -20.0, -15.0, -10.0, -8.0, -6.0, -4.0, -2.0,
                                  0.0, 5.0, 10.0, 15.0, 20.0, 25.0},
                                 25);
  const auto outcomes = sweep.run<std::optional<double>>(
      runner,
      [&](double orient, std::size_t p, std::size_t trial) -> std::optional<double> {
        auto rng = Rng::stream(seed, p, trial);
        const channel::NodePose pose{2.0, 0.0, orient};
        const auto est = link.sense_orientation_at_ap(pose, rng);
        if (!est.valid) return std::nullopt;
        const double gt_jitter = rng.gaussian(0.0, bench::kProtractorSigmaDeg);
        return std::abs(est.orientation_deg - (orient + gt_jitter));
      });

  for (std::size_t p = 0; p < sweep.points().size(); ++p) {
    const double orient = sweep.points()[p];
    const auto acc = sim::Accumulator::from(outcomes[p]);
    const bool mirror_zone = orient >= -6.0 && orient <= -2.0;
    t.add_row({Table::num(orient, 0), Table::num(acc.mean(), 2),
               Table::num(acc.stddev(), 2), std::to_string(acc.misses()),
               mirror_zone ? "mirror-collision region" : ""});
    csv.row({orient, acc.mean(), acc.stddev()});
  }
  t.print(std::cout);
  std::cout << "\nPaper: mean error < 1.5 deg in general, elevated (but < ~3 deg in\n"
               "average) between -6 and -2 deg where the FSA's partially-modulated\n"
               "mirror reflection survives background subtraction. Since the node's\n"
               "beam is ~10 deg wide, a 3-4 deg error does not hurt OAQFM carrier\n"
               "selection (Section 9.3).\n";
  return 0;
}
