// Thread-count invariance: the sim engine's core guarantee is that the
// worker count is a pure performance knob. A Sweep over the physical link
// and a full SDM service round must produce bit-identical results with
// MILBACK_SIM_THREADS=1 and =4 — any divergence means a trial drew from
// shared state instead of its own (seed, point, trial) stream.
//
// This suite is also the designated TSan workload: run it under the `tsan`
// preset to prove the parallel path is race-free (see scripts/check.sh).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "milback/cell/cell_engine.hpp"
#include "milback/cell/multi_cell.hpp"
#include "milback/cell/sdm.hpp"
#include "milback/core/link.hpp"
#include "milback/core/round_types.hpp"
#include "milback/dsp/fft_plan.hpp"
#include "milback/dsp/window.hpp"
#include "milback/sim/sweep.hpp"
#include "milback/sim/trial_runner.hpp"
#include "milback/util/rng.hpp"

namespace milback {
namespace {

/// Scoped MILBACK_SIM_THREADS override (restores the prior value on exit).
class ScopedThreads {
 public:
  explicit ScopedThreads(const char* value) {
    const char* old = std::getenv(kName);
    if (old) saved_ = old;
    had_value_ = old != nullptr;
    ::setenv(kName, value, 1);
  }
  ~ScopedThreads() {
    if (had_value_) {
      ::setenv(kName, saved_.c_str(), 1);
    } else {
      ::unsetenv(kName);
    }
  }

 private:
  static constexpr const char* kName = "MILBACK_SIM_THREADS";
  std::string saved_;
  bool had_value_ = false;
};

core::MilBackLink make_link(std::uint64_t env_seed) {
  Rng env(env_seed);
  return core::MilBackLink(channel::BackscatterChannel::make_default(
                               channel::Environment::indoor_office(env)),
                           core::LinkConfig{});
}

/// A four-node static population for the SDM round checks.
struct StaticCell {
  core::MilBackLink link;
  std::vector<std::string> ids{"a", "b", "c", "d"};
  std::vector<channel::NodePose> poses{{2.0, -25.0, 12.0},
                                       {2.5, 0.0, -12.0},
                                       {3.0, 5.0, 8.0},  // shares a slot with "b"
                                       {3.5, 30.0, -4.0}};
  double min_sep_deg = core::NetworkConfig{}.sdm_min_separation_deg;

  cell::RoundResult uplink(std::size_t bits, Rng& rng) const {
    return cell::run_uplink_round(link, poses, ids, min_sep_deg, bits, rng);
  }
  cell::DownlinkRoundResult downlink(std::size_t bits, Rng& rng) const {
    return cell::run_downlink_round(link, poses, ids, min_sep_deg, bits, rng);
  }
};

StaticCell make_network(std::uint64_t env_seed) {
  return StaticCell{make_link(env_seed)};
}

TEST(ThreadInvariance, LinkSweepIsBitIdenticalAcrossWorkerCounts) {
  // The fig12a shape in miniature: a ranging sweep over distance, one
  // stateless stream per (point, trial) cell.
  const auto link = make_link(7);
  const sim::Sweep<double> sweep({1.0, 2.5, 4.0}, 6);
  const auto trial = [&](double distance_m, std::size_t p,
                         std::size_t t) -> std::optional<double> {
    auto rng = Rng::stream(42, p, t);
    const channel::NodePose pose{distance_m, rng.uniform(-25.0, 25.0), 10.0};
    const auto loc = link.localize(pose, rng);
    if (!loc.detected) return std::nullopt;
    return loc.range_m;
  };

  const auto serial = sweep.run<std::optional<double>>(sim::TrialRunner(1), trial);
  const auto parallel = sweep.run<std::optional<double>>(sim::TrialRunner(4), trial);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t p = 0; p < serial.size(); ++p) {
    ASSERT_EQ(serial[p].size(), parallel[p].size());
    for (std::size_t t = 0; t < serial[p].size(); ++t) {
      ASSERT_EQ(serial[p][t].has_value(), parallel[p][t].has_value())
          << "point " << p << " trial " << t;
      if (serial[p][t]) {
        EXPECT_EQ(*serial[p][t], *parallel[p][t])
            << "point " << p << " trial " << t;
      }
    }
  }
}

TEST(ThreadInvariance, UplinkRoundIsBitIdenticalAcrossWorkerCounts) {
  const auto run = [](const char* threads) {
    const ScopedThreads env(threads);
    const auto net = make_network(3);
    Rng rng(17);
    return net.uplink(200, rng);
  };

  const auto one = run("1");
  const auto four = run("4");

  EXPECT_EQ(one.sdm_slots, four.sdm_slots);
  EXPECT_EQ(one.aggregate_goodput_bps, four.aggregate_goodput_bps);
  ASSERT_EQ(one.nodes.size(), four.nodes.size());
  for (std::size_t i = 0; i < one.nodes.size(); ++i) {
    const auto& a = one.nodes[i];
    const auto& b = four.nodes[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.sdm_slot, b.sdm_slot);
    EXPECT_EQ(a.effective_snr_db, b.effective_snr_db);
    EXPECT_EQ(a.goodput_bps, b.goodput_bps);
    EXPECT_EQ(a.uplink.carriers_ok, b.uplink.carriers_ok);
    EXPECT_EQ(a.uplink.mode, b.uplink.mode);
    EXPECT_EQ(a.uplink.bits_sent, b.uplink.bits_sent);
    EXPECT_EQ(a.uplink.bit_errors, b.uplink.bit_errors);
    EXPECT_EQ(a.uplink.ber, b.uplink.ber);
    EXPECT_EQ(a.uplink.snr_db, b.uplink.snr_db);
    EXPECT_EQ(a.uplink.measured_snr_db, b.uplink.measured_snr_db);
    EXPECT_EQ(a.uplink.analytic_ber, b.uplink.analytic_ber);
    EXPECT_EQ(a.uplink.orientation_estimate_deg, b.uplink.orientation_estimate_deg);
    EXPECT_EQ(a.uplink.carriers.f_a_hz, b.uplink.carriers.f_a_hz);
    EXPECT_EQ(a.uplink.carriers.f_b_hz, b.uplink.carriers.f_b_hz);
  }
}

TEST(ThreadInvariance, DownlinkRoundIsBitIdenticalAcrossWorkerCounts) {
  const auto run = [](const char* threads) {
    const ScopedThreads env(threads);
    const auto net = make_network(3);
    Rng rng(19);
    return net.downlink(200, rng);
  };

  const auto one = run("1");
  const auto four = run("4");

  EXPECT_EQ(one.sdm_slots, four.sdm_slots);
  EXPECT_EQ(one.aggregate_goodput_bps, four.aggregate_goodput_bps);
  ASSERT_EQ(one.nodes.size(), four.nodes.size());
  for (std::size_t i = 0; i < one.nodes.size(); ++i) {
    const auto& a = one.nodes[i];
    const auto& b = four.nodes[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.sdm_slot, b.sdm_slot);
    EXPECT_EQ(a.effective_sinr_db, b.effective_sinr_db);
    EXPECT_EQ(a.goodput_bps, b.goodput_bps);
    EXPECT_EQ(a.downlink.carriers_ok, b.downlink.carriers_ok);
    EXPECT_EQ(a.downlink.mode, b.downlink.mode);
    EXPECT_EQ(a.downlink.bits_sent, b.downlink.bits_sent);
    EXPECT_EQ(a.downlink.bit_errors, b.downlink.bit_errors);
    EXPECT_EQ(a.downlink.ber, b.downlink.ber);
    EXPECT_EQ(a.downlink.sinr_db, b.downlink.sinr_db);
    EXPECT_EQ(a.downlink.analytic_ber, b.downlink.analytic_ber);
    EXPECT_EQ(a.downlink.orientation_estimate_deg,
              b.downlink.orientation_estimate_deg);
  }
}

TEST(ThreadInvariance, SharedFftPlanCacheKeepsSweepsBitIdentical) {
  // The FFT plan and window caches are process-wide and populated lazily:
  // a 4-worker sweep races its first chirps through cache construction while
  // a 1-worker sweep populates serially. Plans are pure functions of their
  // size, so every field produced through them must stay bit-identical --
  // and under the tsan preset this doubles as the race check on the caches.
  // Mixing FFT sizes per trial forces concurrent inserts of distinct keys.
  const sim::Sweep<std::size_t> sweep({256, 512, 1024, 2048}, 4);
  const auto trial = [](std::size_t fft_size, std::size_t p,
                        std::size_t t) -> double {
    auto rng = Rng::stream(77, p, t);
    std::vector<dsp::cplx> x(fft_size);
    for (auto& v : x) v = rng.complex_gaussian(1.0);
    dsp::fft_plan(fft_size).forward(x.data());
    const auto& w = dsp::cached_window(dsp::WindowType::kHann, fft_size / 2);
    double acc = w.enbw_bins;
    for (const auto& v : x) acc += std::norm(v);
    return acc;
  };

  const auto serial = sweep.run<double>(sim::TrialRunner(1), trial);
  const auto parallel = sweep.run<double>(sim::TrialRunner(4), trial);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t p = 0; p < serial.size(); ++p) {
    ASSERT_EQ(serial[p].size(), parallel[p].size());
    for (std::size_t t = 0; t < serial[p].size(); ++t) {
      EXPECT_EQ(serial[p][t], parallel[p][t]) << "point " << p << " trial " << t;
    }
  }
}

TEST(ThreadInvariance, LocalizationFieldsAreBitIdenticalAcrossWorkerCounts) {
  // End-to-end version of the cache guarantee: full localization (window
  // cache + planned FFTs + bulk noise draws) must produce field-for-field
  // identical results at any worker count.
  const auto link = make_link(13);
  const sim::Sweep<double> sweep({1.5, 3.0}, 4);
  const auto trial = [&](double distance_m, std::size_t p,
                         std::size_t t) -> std::vector<double> {
    auto rng = Rng::stream(99, p, t);
    const channel::NodePose pose{distance_m, rng.uniform(-20.0, 20.0), 8.0};
    const auto loc = link.localize(pose, rng);
    return {double(loc.detected), loc.range_m, loc.angle_deg,
            loc.detection_snr_db, loc.aoa_offset_deg.value_or(-1e9)};
  };

  const auto serial = sweep.run<std::vector<double>>(sim::TrialRunner(1), trial);
  const auto parallel = sweep.run<std::vector<double>>(sim::TrialRunner(4), trial);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t p = 0; p < serial.size(); ++p) {
    for (std::size_t t = 0; t < serial[p].size(); ++t) {
      ASSERT_EQ(serial[p][t].size(), parallel[p][t].size());
      for (std::size_t f = 0; f < serial[p][t].size(); ++f) {
        EXPECT_EQ(serial[p][t][f], parallel[p][t][f])
            << "point " << p << " trial " << t << " field " << f;
      }
    }
  }
}

TEST(ThreadInvariance, RoundsConsumeOneDrawRegardlessOfThreads) {
  // The caller's Rng must advance identically whatever the worker count, or
  // downstream draws in a script would diverge.
  const auto next_draw_after_round = [](const char* threads) {
    const ScopedThreads env(threads);
    const auto net = make_network(3);
    Rng rng(23);
    (void)net.uplink(100, rng);
    return rng.engine()();
  };
  EXPECT_EQ(next_draw_after_round("1"), next_draw_after_round("4"));
}

/// Every field of a cell report as exact bit patterns, so two runs compare
/// field for field with no tolerance.
void append_fields(const cell::CellReport& r, std::vector<std::uint64_t>& out) {
  const auto put = [&](double x) { out.push_back(std::bit_cast<std::uint64_t>(x)); };
  out.insert(out.end(), {r.service_rounds, r.events_dispatched, r.peak_population,
                         r.final_population, std::uint64_t(r.stable), r.nodes.size()});
  put(r.duration_s);
  put(r.aggregate_goodput_bps);
  put(r.cell_capacity_bps);
  for (const auto& n : r.nodes) {
    out.push_back(n.rounds_served);
    for (const double x : {n.join_time_s, n.leave_time_s, n.offered_bits, n.delivered_bits,
                           n.mean_latency_s, n.p50_latency_s, n.p95_latency_s,
                           n.peak_queue_bits, n.final_queue_bits, n.service_rate_bps}) {
      put(x);
    }
  }
}

/// A small churn cell: joins, leaves, moves and one blockage episode.
std::vector<std::uint64_t> churn_cell_fields(std::uint64_t seed, std::size_t nodes) {
  Rng env(5);
  cell::CellEngine engine(channel::BackscatterChannel::make_default(
                              channel::Environment::indoor_office(env)),
                          cell::CellConfig{});
  for (std::size_t i = 0; i < nodes; ++i) {
    const double distance = 1.5 + 0.2 * double(i % 7);
    const double bearing = -40.0 + 7.0 * double(i);
    const double orientation = -15.0 + 3.0 * double(i % 9);
    const double join = (i % 3 == 2) ? 0.01 + 0.002 * double(i) : 0.0;
    engine.add_node("n" + std::to_string(i),
                    {.pose = {distance, bearing, orientation},
                     .arrival_rate_bps = 30e3 + 4e3 * double(i % 5),
                     .burstiness = (i % 2) ? 1.0 : 0.0},
                    join);
    if (i % 4 == 3) engine.schedule_leave(i, 0.06 + 0.001 * double(i));
    if (i % 3 == 1) {
      engine.schedule_move(i, 0.04 + 0.001 * double(i),
                           {distance + 0.8, bearing + 2.0, orientation});
    }
  }
  engine.schedule_blockage(0.05, 0.08, 15.0);
  std::vector<std::uint64_t> out;
  append_fields(engine.run(0.1, seed), out);
  return out;
}

/// Two coupled cells with roaming nodes (handoffs at the barrier).
std::vector<std::uint64_t> multi_cell_fields(std::uint64_t seed) {
  Rng env(5);
  cell::MultiCellConfig cfg;
  cfg.aps = {{0.0, 0.0}, {24.0, 0.0}};
  cfg.coverage_radius_m = 12.0;
  cfg.epoch_s = 0.02;
  cell::MultiCellEngine engine(channel::BackscatterChannel::make_default(
                                   channel::Environment::indoor_office(env)),
                               std::move(cfg));
  for (std::size_t i = 0; i < 16; ++i) {
    const double home_x = (i % 2) ? 24.0 : 0.0;
    const double y = -2.0 + 0.3 * double(i);
    engine.add_node("m" + std::to_string(i), {home_x + 1.0 + 0.1 * double(i), y, 5.0},
                    25e3, (i % 3 == 0) ? 0.0 : 1.0);
    if (i % 5 == 2) engine.schedule_waypoint(i, 0.03, {home_x > 0.0 ? 3.0 : 21.0, y, 5.0});
  }
  const auto report = engine.run(0.1, seed);
  std::vector<std::uint64_t> out{report.epochs, report.handoffs, report.peak_population,
                                 std::uint64_t(report.stable),
                                 std::bit_cast<std::uint64_t>(report.aggregate_goodput_bps),
                                 std::bit_cast<std::uint64_t>(report.max_interference_db)};
  for (const auto& c : report.cells) append_fields(c, out);
  for (const auto& n : report.nodes) {
    out.insert(out.end(), {n.home_cell, n.final_cell, n.handoffs, n.rounds_served,
                           std::bit_cast<std::uint64_t>(n.offered_bits),
                           std::bit_cast<std::uint64_t>(n.delivered_bits),
                           std::bit_cast<std::uint64_t>(n.final_queue_bits)});
  }
  return out;
}

TEST(ThreadInvariance, NestedCellSweepAnyWorkerCount) {
  // Cells stepped inside a Sweep trial: each engine's per-sweep fan-out (and
  // a MultiCellEngine's per-epoch fan-out) is a region nested in the
  // Sweep's, so it runs inline on the trial's worker. Reports must match
  // field for field at every worker count, fewer or more workers than trials.
  const sim::Sweep<std::size_t> sweep({6, 10, 0}, 2);  // 0 = the two-cell campus
  const auto run_at = [&](const char* threads) {
    const ScopedThreads env(threads);
    return sweep.run<std::vector<std::uint64_t>>(
        sim::TrialRunner(), [](std::size_t nodes, std::size_t, std::size_t t) {
          const std::uint64_t seed = 900 + t;
          return nodes == 0 ? multi_cell_fields(seed) : churn_cell_fields(seed, nodes);
        });
  };
  const auto serial = run_at("1");
  // Sanity: the cells served sweeps (field 0) and the campus handed nodes
  // off (field 1).
  ASSERT_EQ(serial.size(), 3u);
  for (const auto& point : serial) {
    for (const auto& fields : point) EXPECT_GT(fields[0], 2u);
  }
  for (const auto& campus : serial[2]) EXPECT_GT(campus[1], 0u);
  for (const char* threads : {"2", "3", "7"}) {
    SCOPED_TRACE(std::string("MILBACK_SIM_THREADS=") + threads);
    EXPECT_EQ(run_at(threads), serial);
  }
}

}  // namespace
}  // namespace milback
