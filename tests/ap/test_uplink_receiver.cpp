// Uplink receiver tests: pilot-aided coherent slicing through the simulated
// backscatter channel.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/ap/uplink_receiver.hpp"
#include "milback/core/oaqfm.hpp"

namespace milback::ap {
namespace {

using core::OaqfmSymbol;

channel::BackscatterChannel cluttered_channel(std::uint64_t seed = 1) {
  Rng rng(seed);
  return channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(rng));
}

CarrierSelection carriers_for(const channel::BackscatterChannel& chan, double orient) {
  const auto sel = select_carriers(chan.fsa(), orient, 200e6);
  EXPECT_TRUE(sel.has_value());
  return *sel;
}

// Builds pilot + data schedule; returns (schedule, data symbols).
std::pair<node::UplinkSchedule, std::vector<OaqfmSymbol>> make_burst(
    const std::vector<OaqfmSymbol>& data, std::size_t pilot_n) {
  auto symbols = core::uplink_pilot(pilot_n);
  symbols.insert(symbols.end(), data.begin(), data.end());
  return {node::build_uplink_schedule(symbols), data};
}

TEST(UplinkReceiver, DecodesCleanBurstAtShortRange) {
  const auto chan = cluttered_channel();
  UplinkReceiver rx;
  Rng rng(2);
  const auto sel = carriers_for(chan, 15.0);
  Rng data_rng(3);
  const auto data = core::symbols_from_bits(data_rng.bits(400));
  const auto [schedule, expected] = make_burst(data, rx.config().pilot_symbols);
  const auto r = rx.receive(chan, {2.0, 0.0, 15.0}, sel, schedule,
                            rf::RfSwitchConfig{}, rng);
  ASSERT_EQ(r.symbols.size(), expected.size());
  EXPECT_EQ(r.symbols, expected);
  EXPECT_GT(r.measured_snr_a_db, 15.0);
  EXPECT_GT(r.measured_snr_b_db, 15.0);
}

TEST(UplinkReceiver, PilotStrippedFromOutput) {
  const auto chan = cluttered_channel();
  UplinkReceiver rx;
  Rng rng(4);
  const auto sel = carriers_for(chan, 15.0);
  const auto [schedule, data] = make_burst(
      std::vector<OaqfmSymbol>(50, OaqfmSymbol::k10), rx.config().pilot_symbols);
  const auto r = rx.receive(chan, {2.0, 0.0, 15.0}, sel, schedule,
                            rf::RfSwitchConfig{}, rng);
  EXPECT_EQ(r.symbols.size(), 50u);
  EXPECT_EQ(r.decision_a.size(), 50u);
}

TEST(UplinkReceiver, ErrorsAppearAtLongRange) {
  const auto chan = cluttered_channel();
  UplinkRxConfig cfg;
  cfg.symbol_rate_hz = 20e6;  // 40 Mbps: paper shows BER ~1e-3 at 6 m,
                              // so at 12 m the burst must show errors.
  UplinkReceiver rx{cfg};
  Rng rng(5);
  const auto sel = carriers_for(chan, 15.0);
  Rng data_rng(6);
  const auto data = core::symbols_from_bits(data_rng.bits(3000));
  const auto [schedule, expected] = make_burst(data, cfg.pilot_symbols);
  const auto r = rx.receive(chan, {14.0, 0.0, 15.0}, sel, schedule,
                            rf::RfSwitchConfig{}, rng);
  EXPECT_NE(r.symbols, expected);
}

TEST(UplinkReceiver, MeasuredSnrDecreasesWithDistance) {
  const auto chan = cluttered_channel();
  UplinkReceiver rx;
  const auto sel = carriers_for(chan, 15.0);
  Rng data_rng(7);
  const auto data = core::symbols_from_bits(data_rng.bits(600));
  auto snr_at = [&](double d, std::uint64_t seed) {
    Rng rng(seed);
    const auto [schedule, expected] = make_burst(data, rx.config().pilot_symbols);
    const auto r =
        rx.receive(chan, {d, 0.0, 15.0}, sel, schedule, rf::RfSwitchConfig{}, rng);
    return std::min(r.measured_snr_a_db, r.measured_snr_b_db);
  };
  EXPECT_GT(snr_at(2.0, 8), snr_at(8.0, 9) + 3.0);
}

TEST(UplinkReceiver, AllFourSymbolsSurvive) {
  const auto chan = cluttered_channel();
  UplinkReceiver rx;
  Rng rng(10);
  const auto sel = carriers_for(chan, 20.0);
  std::vector<OaqfmSymbol> data;
  for (int i = 0; i < 25; ++i) {
    data.push_back(OaqfmSymbol::k00);
    data.push_back(OaqfmSymbol::k01);
    data.push_back(OaqfmSymbol::k10);
    data.push_back(OaqfmSymbol::k11);
  }
  const auto [schedule, expected] = make_burst(data, rx.config().pilot_symbols);
  const auto r = rx.receive(chan, {3.0, 0.0, 20.0}, sel, schedule,
                            rf::RfSwitchConfig{}, rng);
  EXPECT_EQ(r.symbols, expected);
}

TEST(UplinkReceiver, DeterministicGivenSeed) {
  const auto chan = cluttered_channel();
  UplinkReceiver rx;
  const auto sel = carriers_for(chan, 15.0);
  const auto [schedule, data] = make_burst(
      std::vector<OaqfmSymbol>(40, OaqfmSymbol::k01), rx.config().pilot_symbols);
  Rng r1(11), r2(11);
  const auto a = rx.receive(chan, {4.0, 0.0, 15.0}, sel, schedule,
                            rf::RfSwitchConfig{}, r1);
  const auto b = rx.receive(chan, {4.0, 0.0, 15.0}, sel, schedule,
                            rf::RfSwitchConfig{}, r2);
  EXPECT_EQ(a.symbols, b.symbols);
  EXPECT_DOUBLE_EQ(a.measured_snr_a_db, b.measured_snr_a_db);
}

}  // namespace
}  // namespace milback::ap
