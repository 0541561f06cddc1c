// Figure 11 — OAQFM microbenchmark.
//
// Paper setup: node 2 m from the AP; the AP picks 27.5 and 28.5 GHz as the
// aligned carriers and sends symbols 00, 01, 10, 11 back-to-back with 1 us
// symbols. Figure 11 shows the two envelope-detector output voltages: each
// port responds only to its own tone, so the four symbols appear as the four
// on/off combinations.
//
// This bench runs the identical experiment through the waveform pipeline and
// prints the per-symbol detector voltages at both ports plus the decoded
// symbols.
#include "bench_common.hpp"

#include "milback/ap/downlink_transmitter.hpp"
#include "milback/node/downlink_demodulator.hpp"
#include "milback/node/node.hpp"

using namespace milback;

int main(int argc, char** argv) {
  const auto seed = bench::parse_seed(argc, argv);
  bench::banner("Fig 11", "OAQFM microbenchmark: detector voltages for 00/01/10/11 at 2 m",
                seed);
  auto env_rng = Rng::stream(seed, bench::kEnvironmentStream);
  const auto chan = bench::make_indoor_channel(env_rng);
  node::MilBackNode nd;

  // Find the orientation whose carrier pair is ~27.5/28.5 GHz (the paper's
  // example pair) — i.e. the port-A beam frequency of 28.5 GHz.
  const auto orient = chan.fsa().beam_angle_deg(antenna::FsaPort::kA, 28.5e9);
  const channel::NodePose pose{2.0, 0.0, orient.value_or(10.0)};
  const auto sel = ap::select_carriers(chan.fsa(), pose.orientation_deg, 200e6);
  if (!sel) {
    std::cout << "carrier selection failed\n";
    return 1;
  }
  std::cout << "node orientation " << Table::num(pose.orientation_deg, 1)
            << " deg -> carriers fA = " << Table::num(sel->f_a_hz / 1e9, 3)
            << " GHz, fB = " << Table::num(sel->f_b_hz / 1e9, 3) << " GHz\n\n";

  // 1 us symbols as in the paper's microbenchmark.
  ap::DownlinkTxConfig txc;
  txc.symbol_rate_hz = 1e6;
  txc.oversample = 64;
  ap::DownlinkTransmitter tx(txc);

  using core::OaqfmSymbol;
  const std::vector<OaqfmSymbol> symbols{OaqfmSymbol::k00, OaqfmSymbol::k01,
                                         OaqfmSymbol::k10, OaqfmSymbol::k11};
  auto w = tx.synthesize(chan, pose, *sel, symbols);
  const double through = nd.rf_switch(antenna::FsaPort::kA).through_power(
      rf::SwitchState::kAbsorb);
  for (auto& p : w.power_a_w) p *= through;
  for (auto& p : w.power_b_w) p *= through;

  auto rng = Rng::stream(seed, bench::kDetectorStream);
  const auto va = nd.detector(antenna::FsaPort::kA).detect(w.power_a_w, w.fs, rng);
  const auto vb = nd.detector(antenna::FsaPort::kB).detect(w.power_b_w, w.fs, rng);

  Table t({"symbol", "port A settled (mV)", "port B settled (mV)", "decoded"});
  CsvWriter csv(CsvWriter::env_dir(), "fig11_waveform", {"t_us", "va_mv", "vb_mv"});
  for (std::size_t i = 0; i < va.size(); ++i) {
    csv.row({double(i) / w.fs * 1e6, va[i] * 1e3, vb[i] * 1e3});
  }
  node::DownlinkDemodConfig demod{.symbol_rate_hz = txc.symbol_rate_hz,
                                  .sample_point = 0.75,
                                  .mode = core::ModulationMode::kOaqfm};
  const auto decision = node::demodulate_downlink(va, vb, w.fs, demod);
  for (std::size_t s = 0; s < symbols.size(); ++s) {
    t.add_row({core::to_string(symbols[s]), Table::num(decision.samples_a[s] * 1e3, 2),
               Table::num(decision.samples_b[s] * 1e3, 2),
               s < decision.symbols.size() ? core::to_string(decision.symbols[s]) : "-"});
  }
  t.print(std::cout);

  const bool all_ok = decision.symbols == symbols;
  std::cout << "\nDecoded sequence " << (all_ok ? "matches" : "DOES NOT match")
            << " the transmitted 00/01/10/11.\n";
  std::cout << "Paper: each port's detector shows the tone only for its own symbol\n"
               "half — the node separates the two tones without any mixer.\n";
  return all_ok ? 0 : 1;
}
