// Ablation — Field-1 chirp-count signalling robustness.
//
// The node learns the payload direction by looking for the quiet gap in the
// Field-1 preamble (2 chirps + gap = downlink, 3 chirps = uplink). This
// bench measures mode-detection accuracy across orientations and distances,
// including the awkward orientations where the node's envelope peaks sit
// near the chirp edges.
#include "bench_common.hpp"

#include "milback/core/link.hpp"

using namespace milback;

int main(int argc, char** argv) {
  const auto seed = bench::parse_seed(argc, argv);
  bench::banner("Ablation", "Preamble direction-detection robustness", seed);

  auto env_rng = Rng::stream(seed, bench::kEnvironmentStream);
  const core::MilBackLink link(bench::make_indoor_channel(env_rng), core::LinkConfig{});

  Table t({"orientation (deg)", "distance (m)", "DL detect rate", "UL detect rate"});
  CsvWriter csv(CsvWriter::env_dir(), "ablation_preamble",
                {"orientation", "distance", "dl_rate", "ul_rate"});
  const int kTrials = 15;
  std::size_t o_idx = 0;
  for (double orient : {-25.0, -12.0, 5.0, 18.0, 28.0}) {
    std::size_t d_idx = 0;
    for (double d : {2.0, 5.0, 8.0}) {
      int dl_ok = 0, ul_ok = 0;
      for (int trial = 0; trial < kTrials; ++trial) {
        const channel::NodePose pose{d, 0.0, orient};
        auto r1 = Rng::stream(seed, o_idx, d_idx, std::uint64_t(trial), std::uint64_t{0});
        const auto trace_dl = link.node_field1_trace(pose, antenna::FsaPort::kA,
                                                     core::LinkDirection::kDownlink, r1);
        const auto det_dl = core::detect_direction(
            trace_dl, link.node().mcu().adc().config().sample_rate_hz,
            link.config().packet.preamble);
        dl_ok += det_dl && *det_dl == core::LinkDirection::kDownlink;

        auto r2 = Rng::stream(seed, o_idx, d_idx, std::uint64_t(trial), std::uint64_t{1});
        const auto trace_ul = link.node_field1_trace(pose, antenna::FsaPort::kA,
                                                     core::LinkDirection::kUplink, r2);
        const auto det_ul = core::detect_direction(
            trace_ul, link.node().mcu().adc().config().sample_rate_hz,
            link.config().packet.preamble);
        ul_ok += det_ul && *det_ul == core::LinkDirection::kUplink;
      }
      t.add_row({Table::num(orient, 0), Table::num(d, 0),
                 Table::num(double(dl_ok) / kTrials, 2),
                 Table::num(double(ul_ok) / kTrials, 2)});
      csv.row({orient, d, double(dl_ok) / kTrials, double(ul_ok) / kTrials});
      ++d_idx;
    }
    ++o_idx;
  }
  t.print(std::cout);
  std::cout << "\nReading: the 1.5-chirp signalling gap keeps the two preambles\n"
               "distinguishable across the scan range; detection only weakens when\n"
               "the envelope peaks themselves fade (extreme orientation + range).\n";
  return 0;
}
