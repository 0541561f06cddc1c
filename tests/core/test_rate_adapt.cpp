// Shared rate-adaptation policy tests — including the regression pinning
// the single source of truth for the Fig 15 thresholds.
#include <gtest/gtest.h>

#include <limits>

#include "milback/cell/cell_engine.hpp"
#include "milback/core/contract.hpp"
#include "milback/core/rate_adapt.hpp"
#include "milback/core/session.hpp"

namespace milback::core {
namespace {

TEST(RateAdapt, ServiceRateThresholds) {
  const RateAdaptConfig cfg;
  EXPECT_DOUBLE_EQ(service_rate_bps(cfg, 25.0), 40e6);
  EXPECT_DOUBLE_EQ(service_rate_bps(cfg, cfg.snr_for_40mbps_db), 40e6);
  EXPECT_DOUBLE_EQ(service_rate_bps(cfg, cfg.snr_for_40mbps_db - 0.1), 10e6);
  EXPECT_DOUBLE_EQ(service_rate_bps(cfg, cfg.snr_for_10mbps_db), 10e6);
  EXPECT_DOUBLE_EQ(service_rate_bps(cfg, cfg.snr_for_10mbps_db - 0.1), 0.0);
  EXPECT_DOUBLE_EQ(service_rate_bps(cfg, -20.0), 0.0);
}

TEST(RateAdapt, AdaptRateAddsFecInThinMargin) {
  const RateAdaptConfig cfg;
  // Comfortable 40 Mbps margin: raw.
  const auto fast = adapt_rate(cfg, cfg.snr_for_40mbps_db + cfg.fec_margin_db + 1.0);
  EXPECT_DOUBLE_EQ(fast.rate_bps, 40e6);
  EXPECT_FALSE(fast.fec);
  // Just over the 40 Mbps threshold: FEC switched in.
  const auto thin = adapt_rate(cfg, cfg.snr_for_40mbps_db + 0.5);
  EXPECT_DOUBLE_EQ(thin.rate_bps, 40e6);
  EXPECT_TRUE(thin.fec);
  // Mid 10 Mbps band, comfortable margin: raw 10 Mbps.
  const auto mid = adapt_rate(cfg, cfg.snr_for_10mbps_db + cfg.fec_margin_db + 1.0);
  EXPECT_DOUBLE_EQ(mid.rate_bps, 10e6);
  EXPECT_FALSE(mid.fec);
}

TEST(RateAdapt, AdaptRateNeverGivesUp) {
  // Below the 10 Mbps threshold the session keeps trying at 10 Mbps + FEC
  // (unlike the scheduler, which skips the node) — see rate_adapt.hpp.
  const RateAdaptConfig cfg;
  const auto weak = adapt_rate(cfg, cfg.snr_for_10mbps_db - 5.0);
  EXPECT_DOUBLE_EQ(weak.rate_bps, 10e6);
  EXPECT_TRUE(weak.fec);
  EXPECT_DOUBLE_EQ(service_rate_bps(cfg, cfg.snr_for_10mbps_db - 5.0), 0.0);
}

// A config that embeds its own rate policy / its own link configuration.
template <typename C>
concept CarriesRate = requires(const C& c) { c.rate; };
template <typename C>
concept CarriesLink = requires(const C& c) { c.link; };

TEST(RateAdapt, SingleSourceOfTruthAcrossLayers) {
  // Regression for the threshold drift this config fixed: SessionConfig used
  // to carry 12 dB for 10 Mbps while the MAC carried 10 dB. The cell now
  // holds the only copy: its budget probe reads CellConfig::rate and every
  // session's step() borrows it, so the session config has no copy (nor a
  // link config of its own) to drift.
  static_assert(CarriesRate<cell::CellConfig>);
  static_assert(!CarriesRate<SessionConfig>);
  static_assert(!CarriesLink<SessionConfig>);
  const RateAdaptConfig truth;
  EXPECT_DOUBLE_EQ(truth.snr_for_10mbps_db, 10.0);
  EXPECT_DOUBLE_EQ(truth.snr_for_40mbps_db, 16.0);
  EXPECT_DOUBLE_EQ(truth.fec_margin_db, 3.0);

  const cell::CellConfig engine;
  EXPECT_DOUBLE_EQ(engine.rate.snr_for_10mbps_db, truth.snr_for_10mbps_db);
  EXPECT_DOUBLE_EQ(engine.rate.snr_for_40mbps_db, truth.snr_for_40mbps_db);
  EXPECT_DOUBLE_EQ(engine.rate.fec_margin_db, truth.fec_margin_db);
}

TEST(RateAdapt, RecalibrationPropagatesThroughMac) {
  // Tightening the shared threshold must change the scheduler's decision —
  // proof the cell engine's service probe consults CellConfig::rate, not a
  // private copy.
  Rng env(1);
  const auto channel = channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(env));
  const channel::NodePose pose{9.0, 0.0, 15.0};  // ~10.9 dB budget SNR

  const cell::CellConfig loose;
  EXPECT_DOUBLE_EQ(cell::probe_service_rate_bps(channel, pose, loose.rate), 10e6);

  cell::CellConfig strict;
  strict.rate.snr_for_10mbps_db = 12.0;  // the old SessionConfig value
  EXPECT_DOUBLE_EQ(cell::probe_service_rate_bps(channel, pose, strict.rate), 0.0);

  // The engine's sweeps take the same decision: the node is never served.
  cell::CellEngine engine(channel, strict);
  engine.add_node("far", {.pose = pose, .arrival_rate_bps = 10e3});
  const auto report = engine.run(0.1, 5);
  ASSERT_EQ(report.nodes.size(), 1u);
  EXPECT_DOUBLE_EQ(report.nodes[0].delivered_bits, 0.0);
}

TEST(RateAdapt, NonFiniteSnrRaisesCatchableViolation) {
  // Both decisions validate their input; a NaN or infinite SNR must surface
  // as a ContractViolation the caller can catch, never std::terminate.
  const RateAdaptConfig cfg;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_THROW((void)service_rate_bps(cfg, bad), ContractViolation) << bad;
    EXPECT_THROW((void)adapt_rate(cfg, bad), ContractViolation) << bad;
  }
}

}  // namespace
}  // namespace milback::core
