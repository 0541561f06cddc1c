// Figure 12a — Ranging accuracy.
//
// Paper setup: node at various distances; per distance 20 trials; mean and
// 90th-percentile absolute range error, ground truth from a laser meter.
// Paper result: mean error < 5 cm at 5 m and < 12 cm at 8 m, growing with
// distance as SNR degrades.
#include "bench_common.hpp"

#include <cmath>
#include <optional>

#include "milback/core/link.hpp"

using namespace milback;

int main(int argc, char** argv) {
  const auto seed = bench::parse_seed(argc, argv);
  bench::banner("Fig 12a", "FMCW ranging accuracy vs distance (20 trials/point)", seed);

  auto env_rng = Rng::stream(seed, bench::kEnvironmentStream);
  const core::MilBackLink link(bench::make_indoor_channel(env_rng), core::LinkConfig{});

  Table t({"distance (m)", "mean err (cm)", "p90 err (cm)", "max err (cm)", "misses",
           "paper bound (cm)"});
  CsvWriter csv(CsvWriter::env_dir(), "fig12a_ranging",
                {"distance_m", "mean_cm", "p90_cm", "max_cm"});

  const sim::TrialRunner runner;
  const sim::Sweep<double> sweep({1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0}, 20);
  const auto outcomes = sweep.run<std::optional<double>>(
      runner, [&](double d, std::size_t p, std::size_t trial) -> std::optional<double> {
        auto rng = Rng::stream(seed, p, trial);
        const channel::NodePose pose{d, 0.0, 10.0};
        const auto r = link.localize(pose, rng);
        if (!r.detected) return std::nullopt;
        return std::abs(r.range_m - d);
      });

  for (std::size_t p = 0; p < sweep.points().size(); ++p) {
    const double d = sweep.points()[p];
    const auto acc = sim::Accumulator::from(outcomes[p]);
    const double bound = d <= 5.0 ? 5.0 : 12.0;
    t.add_row({Table::num(d, 0), Table::num(acc.mean() * 100, 2),
               Table::num(acc.percentile(90) * 100, 2),
               Table::num(acc.max() * 100, 2), std::to_string(acc.misses()),
               "< " + Table::num(bound, 0)});
    csv.row({d, acc.mean() * 100, acc.percentile(90) * 100, acc.max() * 100});
  }
  t.print(std::cout);
  std::cout << "\nPaper: error grows with distance (SNR); mean < 5 cm at 5 m and\n"
               "< 12 cm at 8 m. Range resolution of the 3 GHz sweep: 5 cm/bin;\n"
               "sub-bin accuracy comes from parabolic peak interpolation.\n";
  return 0;
}
