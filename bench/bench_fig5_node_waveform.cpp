// Figure 5 — Orientation detection at the node (waveform view).
//
// The paper's Figure 5 shows (a) the triangular FMCW waveform and (b) the
// node's power-detector output for three different orientations: the two
// envelope humps move symmetrically about the chirp apex, and their
// separation encodes the orientation. This bench renders the same traces as
// ASCII strips from the full simulation (detector + 1 MS/s MCU sampling) and
// reports the recovered peak separations against the closed-form prediction
// dt = T - 2 (f* - f0) / slope.
#include "bench_common.hpp"

#include <cmath>

#include "milback/core/link.hpp"

using namespace milback;

namespace {

// Renders a trace as a 60-column ASCII strip.
std::string strip(const std::vector<double>& v) {
  static const char* kLevels = " .:-=+*#%@";
  const std::size_t cols = 60;
  double vmax = 1e-12;
  for (const double x : v) vmax = std::max(vmax, x);
  std::string out(cols, ' ');
  for (std::size_t c = 0; c < cols; ++c) {
    const std::size_t i0 = c * v.size() / cols;
    const std::size_t i1 = std::max(i0 + 1, (c + 1) * v.size() / cols);
    double peak = 0.0;
    for (std::size_t i = i0; i < i1 && i < v.size(); ++i) peak = std::max(peak, v[i]);
    const auto level = std::size_t(peak / vmax * 9.0);
    out[c] = kLevels[std::min(level, std::size_t(9))];
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto seed = bench::parse_seed(argc, argv);
  bench::banner("Fig 5", "Node-side detector traces under a triangular chirp", seed);

  auto env_rng = Rng::stream(seed, bench::kEnvironmentStream);
  const core::MilBackLink link(bench::make_indoor_channel(env_rng), core::LinkConfig{});
  const auto chirp = link.config().packet.preamble.field1;

  std::cout << "Triangular chirp: " << chirp.duration_s * 1e6 << " us, "
            << chirp.bandwidth_hz / 1e9 << " GHz sweep; node at 2 m; MCU 1 MS/s.\n"
            << "Each row is one port-A detector trace (time left to right; apex at "
               "the middle):\n\n";

  Table t({"orientation (deg)", "predicted dt (us)", "measured dt (us)",
           "est. orientation (deg)"});
  std::size_t p = 0;
  for (double orient : {-20.0, -8.0, 8.0, 20.0}) {
    const channel::NodePose pose{2.0, 0.0, orient};
    auto rng = Rng::stream(seed, p++);
    const auto trace = link.node_field1_trace(pose, antenna::FsaPort::kA,
                                              core::LinkDirection::kUplink, rng);
    // Show the first chirp's worth of MCU samples.
    const auto n_chirp = std::size_t(chirp.duration_s * 1e6);
    std::vector<double> one(trace.begin(),
                            trace.begin() + std::ptrdiff_t(std::min(n_chirp, trace.size())));
    std::cout << "  " << Table::num(orient, 0) << " deg |" << strip(one) << "|\n";

    // Closed-form peak separation vs the estimator's recovery.
    const auto f_star = link.channel().fsa().beam_frequency_hz(antenna::FsaPort::kA, orient);
    std::string predicted = "-", measured = "-", est = "-";
    if (f_star) {
      const double dt = chirp.duration_s -
                        2.0 * (*f_star - chirp.start_frequency_hz) / chirp.slope_hz_per_s();
      predicted = Table::num(dt * 1e6, 1);
      const auto f_rec = node::aligned_frequency_from_trace(one, 1e6, chirp);
      if (f_rec) {
        const double dt_rec = chirp.duration_s -
                              2.0 * (*f_rec - chirp.start_frequency_hz) /
                                  chirp.slope_hz_per_s();
        measured = Table::num(dt_rec * 1e6, 1);
        const auto angle = link.channel().fsa().beam_angle_deg(antenna::FsaPort::kA, *f_rec);
        if (angle) est = Table::num(*angle, 1);
      }
    }
    t.add_row({Table::num(orient, 0), predicted, measured, est});
  }
  std::cout << "\n";
  t.print(std::cout);
  std::cout << "\nPaper (Fig 5): the V-shaped sweep hits the port's aligned frequency\n"
               "twice; the peak pair is symmetric about the apex and its separation\n"
               "shrinks as the aligned frequency approaches the sweep top — exactly\n"
               "the pattern above.\n";
  return 0;
}
