// campus_4cell: one cell::MultiCellEngine with 4 APs on 40 m centers and
// frequency reuse 2, timed as one run.
//
// About 8 000 parked tags plus 80 couriers that walk to the neighboring
// building mid-run, in the corridor-wall and lobby-blocker interior of
// examples/campus_network.cpp. The same cell and channel code as
// aisle_mesh runs here at thousands of nodes per shard: parallel over
// cells, one heavy region per epoch instead of many tiny ones, plus the
// serial barrier (handoff and interference fold). No radar and no mesh run
// in the timed region.
#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "common.hpp"
#include "milback/ap/localizer.hpp"
#include "milback/cell/multi_cell.hpp"
#include "milback/cell/sdm.hpp"
#include "milback/obs/registry.hpp"
#include "milback/sim/trial_runner.hpp"
#include "milback/util/rng.hpp"
#include "milback/util/units.hpp"

namespace scenario_bench {

namespace {

using namespace milback;

constexpr std::uint64_t kTag = 0x63616d7075733463ULL;  // "campus4c"
constexpr std::uint64_t kTagStream = 0, kCourierStream = 1, kFixStream = 2;
constexpr std::size_t kTags = 8000;
constexpr std::size_t kCouriers = 80;
constexpr std::size_t kCells = 4;
constexpr double kEpochS = 0.02;    ///< Pinned epoch = pinned service period.
constexpr double kHorizonS = 1.0;
constexpr double kShortHorizonS = 0.2;  ///< --digest-only runs.
constexpr std::size_t kInstances = 8;  ///< Seeded campuses per run.
constexpr std::size_t kTimedInstances = 4;  ///< The first 4 form the timing cycle.
constexpr std::size_t kMinTracedPasses = 2;
constexpr std::size_t kFixSample = 128;  ///< Tags localized after the run.
constexpr int kReferenceChirps = 500;          ///< Per round, on each worker.
constexpr double kReferenceNominalS = 50e-3;  ///< Of the order of the tuning host's rounds.

struct Courier {
  std::size_t node;
  double time_s;
  cell::GlobalPose to;
};

struct Scenario {
  double horizon_s = kHorizonS;
  cell::MultiCellConfig cfg;
  channel::MultipathConfig scene;
  std::vector<cell::GlobalPose> poses;  ///< Initial plan positions.
  std::vector<double> rates_bps;
  std::vector<Courier> couriers;
};

Scenario make_scenario(std::uint64_t seed, int workers, double horizon_s) {
  Scenario s;
  s.horizon_s = horizon_s;
  s.cfg.aps = {{0.0, 0.0}, {40.0, 0.0}, {0.0, 40.0}, {40.0, 40.0}};
  s.cfg.coverage_radius_m = 15.0;
  s.cfg.epoch_s = kEpochS;
  s.cfg.frequency_channels = 2;  // diagonal AP pairs share a channel
  s.cfg.cell.service_period_s = kEpochS;
  s.cfg.threads = workers;

  // Parked tags clustered in front of their home AP, 2 000 per building.
  for (std::size_t i = 0; i < kTags; ++i) {
    auto rng = Rng::stream(seed, kTag, kTagStream, i);
    const std::size_t home = i % kCells;
    const double hx = 40.0 * double(home % 2), hy = 40.0 * double(home / 2);
    s.poses.push_back({hx + rng.uniform(0.6, 2.7), hy + rng.uniform(-1.8, 1.0),
                       rng.uniform(-18.0, 18.0)});
    s.rates_bps.push_back(8e3 + 2e3 * double(i % 4));
  }
  // Couriers: distinct tags that walk to the horizontally adjacent building.
  std::vector<std::uint8_t> picked(kTags, 0);
  for (std::size_t k = 0; s.couriers.size() < kCouriers; ++k) {
    auto rng = Rng::stream(seed, kTag, kCourierStream, k);
    const auto i = std::size_t(rng.uniform_int(0, std::int64_t(kTags) - 1));
    if (picked[i]) continue;
    picked[i] = 1;
    const std::size_t home = i % kCells;
    const double hy = 40.0 * double(home / 2);
    const double tx = home % 2 == 0 ? 37.5 : 2.5;
    s.couriers.push_back({i, rng.uniform(0.05, 0.6) * horizon_s,
                          {tx, hy + rng.uniform(-1.0, 1.0), 0.0}});
  }
  // Per-building interior, AP-centric: a corridor wall grazing the tag
  // cluster and a lobby blocker pacing across it.
  s.scene.walls.push_back({-1.0, 1.2, 5.0, 1.2, 10.0});
  s.scene.blockers.push_back({2.0, -3.0, 0.0, 1.0, 0.35, 25.0});
  return s;
}

cell::MultiCellEngine build_engine(const Scenario& s) {
  cell::MultiCellEngine campus(office_channel(), s.cfg);
  campus.reserve_nodes(kTags / kCells);
  for (std::size_t i = 0; i < s.poses.size(); ++i) {
    campus.add_node("tag-" + std::to_string(i), s.poses[i], s.rates_bps[i]);
  }
  for (const auto& c : s.couriers) campus.schedule_waypoint(c.node, c.time_s, c.to);
  campus.set_multipath(s.scene);
  return campus;
}

std::string report_digest(const cell::MultiCellReport& r) {
  Digest d;
  d.add(r.duration_s);
  d.add(std::uint64_t(r.epochs));
  d.add(std::uint64_t(r.handoffs));
  d.add(std::uint64_t(r.peak_population));
  d.add(r.aggregate_goodput_bps);
  d.add(r.max_interference_db);
  d.add(r.stable);
  for (const auto& n : r.nodes) {
    d.add(n.id.view());
    for (const std::size_t x : {n.home_cell, n.final_cell, n.handoffs, n.rounds_served}) {
      d.add(std::uint64_t(x));
    }
    d.add(n.offered_bits);
    d.add(n.delivered_bits);
    d.add(n.final_queue_bits);
  }
  for (const auto& c : r.cells) {
    d.add(std::uint64_t(c.service_rounds));
    d.add(std::uint64_t(c.events_dispatched));
    d.add(std::uint64_t(c.peak_population));
    d.add(std::uint64_t(c.final_population));
    d.add(c.aggregate_goodput_bps);
    d.add(c.cell_capacity_bps);
    d.add(c.stable);
    for (const auto& n : c.nodes) {
      d.add(n.id.view());
      for (const double x : {n.join_time_s, n.leave_time_s, n.offered_bits, n.delivered_bits,
                             n.mean_latency_s, n.p50_latency_s, n.p95_latency_s,
                             n.peak_queue_bits, n.final_queue_bits, n.service_rate_bps}) {
        d.add(x);
      }
      d.add(std::uint64_t(n.rounds_served));
    }
  }
  return d.hex();
}

struct Run {
  double setup_s = 0.0;
  double run_s = 0.0;
  cell::MultiCellReport report;
  std::size_t memory_bytes = 0;
  std::optional<cell::MultiCellEngine> engine;
};

Run run_once(const Scenario& s, std::uint64_t seed) {
  Run run;
  const auto t0 = Clock::now();
  run.engine.emplace(build_engine(s));
  run.setup_s = since(t0);
  const auto t1 = Clock::now();
  run.report = run.engine->run(s.horizon_s, seed);
  run.run_s = since(t1);
  run.memory_bytes = run.engine->memory_bytes();
  return run;
}

/// Plan position of tag `i` after its courier walk (if any) at time `t`.
cell::GlobalPose pose_at(const Scenario& s, const std::vector<int>& courier_of, std::size_t i,
                         double t) {
  const int c = courier_of[i];
  if (c >= 0 && s.couriers[std::size_t(c)].time_s < t) return s.couriers[std::size_t(c)].to;
  return s.poses[i];
}

std::vector<int> courier_index(const Scenario& s) {
  std::vector<int> courier_of(s.poses.size(), -1);
  for (std::size_t c = 0; c < s.couriers.size(); ++c) courier_of[s.couriers[c].node] = int(c);
  return courier_of;
}

// 2-D errors of AP radar fixes of a seeded tag sample at their final
// serving-cell pose.
std::vector<double> fix_errors_m(const Scenario& s, const Run& run, std::uint64_t seed) {
  const std::vector<int> courier_of = courier_index(s);
  channel::BackscatterChannel ch = office_channel();
  ch.set_multipath(s.scene);
  ch.set_path_time_s(s.horizon_s);
  const ap::Localizer localizer;
  std::vector<double> errors;
  for (std::size_t j = 0; j < kFixSample; ++j) {
    auto rng = Rng::stream(seed, kTag, kFixStream, j);
    const auto i = std::size_t(rng.uniform_int(0, std::int64_t(kTags) - 1));
    const std::size_t cell = run.report.nodes[i].final_cell;
    const auto pose = run.engine->local_pose(cell, pose_at(s, courier_of, i, s.horizon_s));
    const auto fix = localizer.localize(ch, pose, rng);
    if (!fix.detected) continue;
    const double dx = fix.range_m * std::cos(deg2rad(fix.angle_deg)) -
                      pose.distance_m * std::cos(deg2rad(pose.azimuth_deg));
    const double dy = fix.range_m * std::sin(deg2rad(fix.angle_deg)) -
                      pose.distance_m * std::sin(deg2rad(pose.azimuth_deg));
    errors.push_back(std::hypot(dx, dy));
  }
  return errors;
}

std::string one_worker_digest(std::uint64_t seed, double horizon_s) {
  const Scenario s = make_scenario(seed, 1, horizon_s);
  return report_digest(build_engine(s).run(s.horizon_s, seed));
}

Result run_untraced(const Options& opt) {
  Result r;
  // The first pass runs each of kInstances seeded campuses once; quality
  // metrics pool those runs, which keeps their seed-to-seed spread small.
  std::vector<Scenario> scenarios;
  std::vector<std::uint64_t> seeds;
  for (std::size_t i = 0; i < kInstances; ++i) {
    seeds.push_back(instance_seed(opt.seed, kTag, i));
    scenarios.push_back(make_scenario(seeds.back(), opt.workers, kHorizonS));
  }
  // Outside the measured window: the one-worker reference run of instance
  // 0, then one warm-up run at the workload's worker count (the first run
  // in a process pays for allocator arenas and page faults).
  const std::string one_worker = one_worker_digest(seeds[0], kHorizonS);
  (void)run_once(scenarios[0], seeds[0]);

  std::vector<double> setups, runs, errors_m, bytes_per_node;
  // A step is one run of one of the first kTimedInstances campuses: after
  // the first pass over all of them the window replays only those, which
  // doubles each one's repeats (a run takes most of a second). Each timed
  // run is preceded by a reference round on as many threads, long enough
  // to meet the same steal a run meets.
  FastestRepeat timing(kTimedInstances, 0, kTimedInstances,
                       double(kTimedInstances) * kHorizonS, kReferenceNominalS);
  ReferenceLoad load(opt.workers, kReferenceChirps, 1024);
  std::vector<std::string> digests;
  double offered = 0.0, delivered = 0.0;
  std::size_t handoffs = 0;
  const auto start = Clock::now();
  for (std::size_t rep = 0; rep < kInstances || since(start) < opt.seconds; ++rep) {
    const std::size_t i = rep < kInstances ? rep : (rep - kInstances) % kTimedInstances;
    const bool timed = i < kTimedInstances;
    if (timed) timing.reference(i, load.round());
    const Run run = run_once(scenarios[i], seeds[i]);
    setups.push_back(run.setup_s);
    runs.push_back(run.run_s);
    if (timed) timing.step(i, run.run_s);
    const std::string digest = report_digest(run.report);
    if (rep >= kInstances) {
      if (digest != digests[i]) fail_check(r, "a repeated run produced a different report");
      continue;
    }
    digests.push_back(digest);
    const auto& report = run.report;
    for (const auto& n : report.nodes) {
      offered += n.offered_bits;
      delivered += n.delivered_bits;
    }
    std::size_t population = 0;
    for (const auto& c : report.cells) population += c.final_population;
    if (report.nodes.size() != kTags || report.handoffs == 0 || population == 0) {
      fail_check(r, "campus report is incomplete (nodes, handoffs or population missing)");
      continue;
    }
    handoffs += report.handoffs;
    bytes_per_node.push_back(double(run.memory_bytes) / double(population));
    // Untimed: the campus runs no radar in its timed region.
    const auto errors = fix_errors_m(scenarios[i], run, seeds[i]);
    errors_m.insert(errors_m.end(), errors.begin(), errors.end());
  }
  r.attempted = runs.size();
  if (one_worker != digests[0]) {
    fail_check(r, "report at 1 worker differs from the report at " +
                      std::to_string(opt.workers) + " workers");
  }
  if (offered <= 0.0 || errors_m.empty()) fail_check(r, "no traffic offered or no tag fixed");
  Digest all;
  for (const auto& d : digests) all.add(std::string_view(d));
  r.digest = all.hex();

  double bytes = 0.0;
  for (const double b : bytes_per_node) bytes += b / double(bytes_per_node.size());
  r.metrics.push_back({"setup_s", "s", timing.scale() * median(setups)});
  // A campus step is one whole run: a cycle holds 4, too few for a p99
  // with 10 samples beyond it (see the note).
  timing.add_metrics(r);
  r.metrics.push_back({"fail_frac", "ratio", (offered - delivered) / offered});
  r.metrics.push_back({"fix_err_p50_cm", "cm", 100.0 * median(errors_m)});
  r.metrics.push_back({"state_bytes_per_node", "B", bytes});
  r.metrics.push_back({"peak_rss_mb", "MB", peak_rss_mb()});
  std::string run_ms = "run times (ms):";
  for (const double x : runs) run_ms += " " + std::to_string(std::llround(1e3 * x));
  r.notes.push_back(run_ms);
  r.notes.push_back("scenario: " + std::to_string(kTags) + " tags and " +
                    std::to_string(kCouriers) + " couriers x " + std::to_string(kInstances) +
                    " campuses, " + std::to_string(runs.size()) + " runs of " +
                    std::to_string(std::llround(kHorizonS / kEpochS)) + " epochs; " +
                    std::to_string(double(handoffs) / kInstances) + " handoffs per campus");
  return r;
}

Result run_traced(const Options& opt) {
  Result r;
  const Scenario s = make_scenario(opt.seed, opt.workers, kHorizonS);
  const std::vector<int> courier_of = courier_index(s);
  const sim::TrialRunner runner(opt.workers);
  const sim::TrialRunner shard_runner(1);  // shards sweep on one worker
  (void)run_once(s, opt.seed);  // warm-up: the first run in a process is slower
  const double untraced_wall = run_once(s, opt.seed).run_s;

  // Cell channels for the replay, one per shard so tasks never share one.
  std::vector<channel::BackscatterChannel> channels(kCells, office_channel());
  for (auto& ch : channels) ch.set_multipath(s.scene);
  const std::size_t epochs = std::size_t(std::llround(s.horizon_s / kEpochS));

  Ledger ledger;
  double run_s = 0.0, region = 0.0, probe = 0.0, sdm = 0.0, alive_node_sweeps = 0.0;
  std::vector<double> region_ns;
  std::optional<Counts> first_counts;
  std::size_t passes = 0;
  const auto start = Clock::now();
  while (passes < kMinTracedPasses || since(start) < opt.seconds) {
    cell::MultiCellEngine campus = build_engine(s);
    obs::set_enabled(true, false);
    obs::Registry::global().reset();
    const auto t0 = Clock::now();
    const cell::MultiCellReport report = campus.run(s.horizon_s, opt.seed);
    run_s += since(t0);
    obs::set_enabled(false, false);
    const Counts counts = read_counts();
    region_ns.push_back(
        obs::quantile(obs::Registry::global().histogram_snapshot("sim.region_ns"), 50.0));
    if (first_counts) {
      check_counts_repeat(r, *first_counts, counts);
    } else {
      first_counts = counts;
      r.digest = report_digest(report);
    }

    // Replay every epoch's per-cell probe + SDM on the serving-cell poses
    // the run saw (couriers hand off at the first barrier after their
    // walk), in the engine's shape: cells in parallel, each shard serial.
    for (std::size_t e = 0; e < epochs; ++e) {
      const double t = double(e) * kEpochS;
      std::vector<std::vector<channel::NodePose>> cell_poses(kCells);
      for (std::size_t i = 0; i < kTags; ++i) {
        const auto plan = pose_at(s, courier_of, i, t);
        const int c = courier_of[i];
        const bool moved = c >= 0 && s.couriers[std::size_t(c)].time_s < t;
        const std::size_t cell = moved ? campus.nearest_cell(plan.x_m, plan.y_m)
                                       : campus.nearest_cell(s.poses[i].x_m, s.poses[i].y_m);
        cell_poses[cell].push_back(campus.local_pose(cell, plan));
      }
      for (const auto& p : cell_poses) alive_node_sweeps += double(p.size());
      auto q = Clock::now();
      runner.for_each(kCells, [&](std::size_t c) {
        shard_runner.for_each(cell_poses[c].size(), [](std::size_t) {});
      });
      const double noop = since(q);
      std::vector<double> probe_cpu(kCells, 0.0), sdm_cpu(kCells, 0.0);
      q = Clock::now();
      runner.for_each(kCells, [&](std::size_t c) {
        channels[c].set_path_time_s(t);
        const auto& poses = cell_poses[c];
        const auto a = Clock::now();
        (void)shard_runner.map<double>(poses.size(), [&](std::size_t j) {
          return cell::probe_service_rate_bps(channels[c], poses[j], s.cfg.cell.rate);
        });
        const auto b = Clock::now();
        (void)cell::sdm_partition(poses, s.cfg.cell.network.sdm_min_separation_deg);
        probe_cpu[c] = std::chrono::duration<double>(b - a).count();
        sdm_cpu[c] = since(b);
      });
      const double full = since(q);
      double p_cpu = 0.0, s_cpu = 0.0;
      for (std::size_t c = 0; c < kCells; ++c) {
        p_cpu += probe_cpu[c];
        s_cpu += sdm_cpu[c];
      }
      const double work = std::max(full - noop, 0.0);
      region += noop;
      probe += p_cpu + s_cpu > 0.0 ? work * p_cpu / (p_cpu + s_cpu) : 0.0;
      sdm += p_cpu + s_cpu > 0.0 ? work * s_cpu / (p_cpu + s_cpu) : 0.0;
    }
    ++passes;
  }
  r.attempted = passes;

  const double n = double(passes);
  set_counts(ledger, *first_counts);
  ledger.set("sim.region_s", region / n);
  ledger.set("channel.probe_s", probe / n);
  ledger.set("cell.sdm_s", sdm / n);
  ledger.set("multicell.self_s", (run_s - region - probe - sdm) / n);
  ledger.set("multicell.parallel_frac", run_s > 0.0 ? (region + probe + sdm) / run_s : 0.0);
  ledger.set("cell.skip_ratio", alive_node_sweeps > 0.0
                                    ? ledger.get("cell.sweeps.skipped_nodes") * n /
                                          alive_node_sweeps
                                    : 0.0);
  ledger.set("sim.region_ns", median(region_ns));
  for (const char* row : {"sim.region_s", "channel.probe_s", "cell.sdm_s"}) {
    ledger.mark(row, Ledger::Kind::kWork);
  }
  ledger.mark("multicell.self_s", Ledger::Kind::kResidual);
  r.metrics = ledger.finish(run_s / n, untraced_wall, r.notes);
  r.notes.push_back("traced passes: " + std::to_string(passes) +
                    " campus runs; region, probe and SDM rows are replay estimates of every "
                    "epoch on its serving-cell poses (interference fold not replayed)");
  return r;
}

}  // namespace

Result run_campus_4cell(const Options& opt) {
  if (opt.digest_only) {
    const Scenario s = make_scenario(opt.seed, opt.workers, kShortHorizonS);
    Result r;
    r.digest = report_digest(run_once(s, opt.seed).report);
    r.attempted = 1;
    return r;
  }
  return opt.trace ? run_traced(opt) : run_untraced(opt);
}

}  // namespace scenario_bench
