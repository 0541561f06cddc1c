// Cell engine thread-count invariance: a full discrete-event churn scenario
// — 50 nodes with staggered joins, leaves, mobility waypoints and a blockage
// episode — must produce a bit-identical CellReport with MILBACK_SIM_THREADS
// set to 1 and to 4. Every random draw inside the engine comes from
// Rng::stream(seed, node, event_seq) and the per-sweep fan-out reduces in
// node-index order, so the worker count is a pure performance knob.
//
// This suite matches the check.sh TSan stage's test regex, so it is also the
// designated race-detector workload for the engine's parallel path.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "milback/cell/cell_engine.hpp"

namespace milback::cell {
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

CellEngine make_engine(CellConfig config = {}) {
  Rng env(5);
  return CellEngine(channel::BackscatterChannel::make_default(
                        channel::Environment::indoor_office(env)),
                    config);
}

/// 50-node churn scenario: a deterministic synthetic fleet with staggered
/// joins, departures, mobility waypoints and one blockage episode — the
/// workload none of the pre-engine layers could express.
void build_churn_scenario(CellEngine& engine) {
  for (std::size_t i = 0; i < 50; ++i) {
    const double bearing = -55.0 + 2.2 * double(i);
    const double distance = 1.5 + 0.12 * double(i % 17);
    const double orientation = -20.0 + 2.0 * double(i % 21);
    const core::TrafficSpec spec{
        .pose = {distance, bearing, orientation},
        .arrival_rate_bps = 20e3 + 3e3 * double(i % 7),
        .burstiness = (i % 3 == 0) ? 0.0 : 1.0,
    };
    // A third of the fleet joins mid-run (all before the first leave at
    // t = 0.108, so the population genuinely peaks at 50).
    const double join = (i % 3 == 2) ? 0.02 + 0.001 * double(i) : 0.0;
    engine.add_node("tag-" + std::to_string(i), spec, join);
    if (i % 5 == 4) engine.schedule_leave(i, 0.10 + 0.002 * double(i));
    if (i % 4 == 1) {
      engine.schedule_move(i, 0.05 + 0.002 * double(i),
                           {distance + 1.0, bearing + 3.0, orientation});
    }
  }
  engine.schedule_blockage(0.08, 0.12, 18.0);
}

void expect_reports_identical(const CellReport& a, const CellReport& b) {
  EXPECT_EQ(a.service_rounds, b.service_rounds);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
  EXPECT_EQ(a.peak_population, b.peak_population);
  EXPECT_EQ(a.final_population, b.final_population);
  EXPECT_EQ(a.stable, b.stable);
  EXPECT_DOUBLE_EQ(a.aggregate_goodput_bps, b.aggregate_goodput_bps);
  EXPECT_DOUBLE_EQ(a.cell_capacity_bps, b.cell_capacity_bps);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    SCOPED_TRACE(a.nodes[i].id);
    EXPECT_EQ(a.nodes[i].id, b.nodes[i].id);
    EXPECT_EQ(a.nodes[i].rounds_served, b.nodes[i].rounds_served);
    EXPECT_DOUBLE_EQ(a.nodes[i].offered_bits, b.nodes[i].offered_bits);
    EXPECT_DOUBLE_EQ(a.nodes[i].delivered_bits, b.nodes[i].delivered_bits);
    EXPECT_DOUBLE_EQ(a.nodes[i].mean_latency_s, b.nodes[i].mean_latency_s);
    EXPECT_DOUBLE_EQ(a.nodes[i].p95_latency_s, b.nodes[i].p95_latency_s);
    EXPECT_DOUBLE_EQ(a.nodes[i].peak_queue_bits, b.nodes[i].peak_queue_bits);
    EXPECT_DOUBLE_EQ(a.nodes[i].final_queue_bits, b.nodes[i].final_queue_bits);
    EXPECT_DOUBLE_EQ(a.nodes[i].service_rate_bps, b.nodes[i].service_rate_bps);
  }
}

TEST(CellThreadInvariance, FiftyNodeChurnScenarioIsBitIdentical) {
  CellReport serial, parallel;
  {
    ScopedThreads guard("1");
    auto engine = make_engine();
    build_churn_scenario(engine);
    serial = engine.run(0.2, 1234);
  }
  {
    ScopedThreads guard("4");
    auto engine = make_engine();
    build_churn_scenario(engine);
    parallel = engine.run(0.2, 1234);
  }
  // Sanity: the scenario actually exercises churn and service.
  EXPECT_GT(serial.service_rounds, 10u);
  EXPECT_EQ(serial.peak_population, 50u);
  EXPECT_LT(serial.final_population, 50u);
  expect_reports_identical(serial, parallel);
}

TEST(CellThreadInvariance, SessionModeCellIsBitIdentical) {
  // Session mode runs a full AdaptiveSession per node inside the fan-out —
  // the heaviest shared-state surface: each trial mutates its own session
  // while every session reads the cell's one link (walls included) through
  // a const reference. Odd worker counts split the four nodes unevenly.
  CellConfig cfg;
  cfg.run_sessions = true;
  cfg.service_period_s = 0.02;
  const auto build = [&]() {
    auto engine = make_engine(cfg);
    engine.set_multipath(channel::MultipathConfig::office_walls(21, 5));
    engine.add_node("a", {.pose = {2.0, -30.0, 10.0}, .arrival_rate_bps = 80e3});
    engine.add_node("b", {.pose = {2.5, -5.0, -8.0}, .arrival_rate_bps = 80e3});
    engine.add_node("c", {.pose = {3.0, 10.0, 12.0}, .arrival_rate_bps = 80e3});
    engine.add_node("d", {.pose = {3.5, 35.0, 5.0}, .arrival_rate_bps = 80e3},
                    0.05);
    engine.schedule_move(1, 0.10, {2.7, -8.0, -8.0});
    engine.schedule_blockage(0.12, 0.16, 12.0);
    return engine;
  };
  const auto run_with = [&](const char* threads) {
    ScopedThreads guard(threads);
    auto engine = build();
    return engine.run(0.2, 77);
  };
  const CellReport serial = run_with("1");
  EXPECT_GT(serial.service_rounds, 5u);
  for (const char* threads : {"2", "3", "7"}) {
    SCOPED_TRACE(threads);
    expect_reports_identical(serial, run_with(threads));
  }
}

}  // namespace
}  // namespace milback::cell
