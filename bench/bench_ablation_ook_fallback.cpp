// Ablation — the normal-incidence OOK fallback (Section 6.2).
//
// Near zero orientation both FSA beams demand the same carrier, so OAQFM
// degenerates. This bench sweeps orientation through zero and reports the
// selected mode, the tone separation, and the downlink outcome — plus what
// happens if OAQFM is *forced* with colliding tones (the failure the
// fallback exists to avoid).
#include "bench_common.hpp"

#include <cmath>

#include "milback/core/link.hpp"

using namespace milback;

int main(int argc, char** argv) {
  const auto seed = bench::parse_seed(argc, argv);
  bench::banner("Ablation", "Normal-incidence OOK fallback vs forced OAQFM", seed);

  auto env_rng = Rng::stream(seed, bench::kEnvironmentStream);
  const core::MilBackLink link(bench::make_indoor_channel(env_rng), core::LinkConfig{});
  const auto& fsa = link.channel().fsa();

  Table t({"orientation (deg)", "tone sep (MHz)", "mode", "payload BER",
           "bits/symbol"});
  CsvWriter csv(CsvWriter::env_dir(), "ablation_ook_fallback",
                {"orientation", "sep_mhz", "is_ook", "ber"});
  std::size_t next_p = 0;
  for (double orient : {-8.0, -4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    const std::size_t p = next_p++;
    const auto pair = fsa.carrier_pair_for_angle(orient);
    if (!pair) continue;
    const double sep = std::abs(pair->first - pair->second);
    auto rng = Rng::stream(seed, p, std::uint64_t{0});
    auto data = Rng::stream(seed, p, std::uint64_t{1});
    const auto bits = data.bits(1000);
    const auto r = link.run_downlink({2.0, 0.0, orient}, bits, rng);
    const bool ook = r.mode == core::ModulationMode::kOok;
    t.add_row({Table::num(orient, 1), Table::num(sep / 1e6, 0),
               r.carriers_ok ? (ook ? "OOK" : "OAQFM") : "none",
               r.carriers_ok ? Table::sci(r.ber, 1) : "-", ook ? "1" : "2"});
    csv.row({orient, sep / 1e6, ook ? 1.0 : 0.0, r.ber});
  }
  t.print(std::cout);

  // Forced-OAQFM failure demonstration: pick two carriers 40 MHz apart at
  // normal incidence — both land in both ports' beams, so the per-port
  // presence test can no longer separate the bits.
  std::cout << "\nForced OAQFM at normal incidence (tones 40 MHz apart):\n";
  const double f0 = fsa.config().center_frequency_hz;
  ap::CarrierSelection forced{f0 - 20e6, f0 + 20e6, core::ModulationMode::kOaqfm};
  ap::DownlinkTransmitter tx;
  const channel::NodePose pose{2.0, 0.0, 0.0};
  using core::OaqfmSymbol;
  const std::vector<OaqfmSymbol> syms{OaqfmSymbol::k10, OaqfmSymbol::k01};
  const auto w = tx.synthesize(link.channel(), pose, forced, syms);
  // Compare port powers for '10' vs '01': if indistinguishable, OAQFM fails.
  const std::size_t os = tx.config().oversample;
  const double a10 = w.power_a_w[0], a01 = w.power_a_w[os];
  const double contrast_db = 10.0 * std::log10(std::max(a10, 1e-30) / std::max(a01, 1e-30));
  std::cout << "  port A power for '10' vs '01': " << Table::num(contrast_db, 2)
            << " dB contrast (OAQFM needs > ~10 dB; OOK fallback avoids this).\n";
  std::cout << "\nReading: the mode switch at |f_A - f_B| < 200 MHz keeps the link\n"
               "alive through normal incidence at half the spectral efficiency,\n"
               "exactly as Section 6.2 prescribes.\n";
  return 0;
}
