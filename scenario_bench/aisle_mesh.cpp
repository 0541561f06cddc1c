// aisle_mesh: one cell::CellEngine in budget-probe mode over a scaled-up
// warehouse_aisles scene, stepped one service sweep at a time.
//
// Four aisles of 48 pallet tags reach from 2 to 20 m, well past the ~11 m
// single-hop budget, so a 3-anchor relay mesh carries the deep tags. Rack
// faces are specular walls, two pacing blockers sever rays as they cross
// the aisles, dock-door blockage episodes hit every AP ray once a second,
// and scheduled joins, leaves and moves keep dirtying the mesh topology.
// The cost sits in many small per-sweep TrialRunner regions, PathSet
// probes, the SDM partition and churn-triggered route discovery; radar runs
// only for the final report's fixes. Sweeps without discovery set the
// median step, discovery sweeps the p99.
#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <string>
#include <utility>

#include "common.hpp"
#include "milback/ap/localizer.hpp"
#include "milback/cell/cell_engine.hpp"
#include "milback/cell/sdm.hpp"
#include "milback/mesh/anchor_fusion.hpp"
#include "milback/mesh/neighbor_table.hpp"
#include "milback/mesh/routing.hpp"
#include "milback/obs/registry.hpp"
#include "milback/sim/trial_runner.hpp"
#include "milback/util/rng.hpp"
#include "milback/util/units.hpp"

namespace scenario_bench {

namespace {

using namespace milback;

constexpr std::uint64_t kTag = 0x6169736c655f6d65ULL;  // "aisle_me"
constexpr std::uint64_t kPoseStream = 0, kChurnStream = 1, kDockStream = 2;
constexpr std::size_t kAisles = 4;
constexpr std::size_t kTagsPerAisle = 48;
constexpr std::size_t kJoins = 20, kLeaves = 15, kMoves = 24;  ///< Churn per run.
constexpr double kPeriodS = 0.01;         ///< Pinned service period.
constexpr double kHorizonS = 2.5;
constexpr double kShortHorizonS = 0.5;    ///< --digest-only runs.
constexpr std::size_t kInstances = 4;     ///< Seeded warehouses per run.
constexpr std::size_t kMinTracedPasses = 2;
constexpr std::size_t kReferenceEvery = 50;      ///< Sweeps between reference rounds.
constexpr std::size_t kReferenceSamples = 65536;  ///< One 1 MiB chirp per round.
constexpr double kReferenceNominalS = 7e-3;      ///< A quiet vCPU of the tuning host.

struct Scenario {
  double horizon_s = kHorizonS;
  cell::CellConfig cfg;
  channel::MultipathConfig scene;
  mesh::MeshConfig mesh;
  std::vector<std::string> ids;
  std::vector<core::TrafficSpec> specs;
  std::vector<double> join_s;
  struct Leave {
    std::size_t node;
    double time_s;
  };
  std::vector<Leave> leaves;
  struct Move {
    std::size_t node;
    double time_s;
    channel::NodePose pose;
  };
  std::vector<Move> moves;
  struct Blockage {
    double start_s, end_s, loss_db;
  };
  std::vector<Blockage> blockages;

  double blockage_db_at(double t) const {
    for (const auto& b : blockages) {
      if (b.start_s <= t && t < b.end_s) return b.loss_db;
    }
    return 0.0;
  }
};

double aisle_deg(std::size_t a) { return -36.0 + 24.0 * double(a); }

channel::NodePose aisle_pose(std::size_t aisle, double along_m, double lateral_m,
                             double orientation_deg) {
  const double th = deg2rad(aisle_deg(aisle));
  const double x = along_m * std::cos(th) - lateral_m * std::sin(th);
  const double y = along_m * std::sin(th) + lateral_m * std::cos(th);
  return channel::NodePose{std::hypot(x, y), rad2deg(std::atan2(y, x)), orientation_deg};
}

Scenario make_scenario(std::uint64_t seed, int workers, double horizon_s) {
  Scenario s;
  s.horizon_s = horizon_s;
  s.cfg.service_period_s = kPeriodS;
  s.cfg.sweep_threads = workers;

  // Pallet tags every ~0.38 m from 2 to 20 m down each aisle.
  std::vector<double> lateral;
  for (std::size_t a = 0; a < kAisles; ++a) {
    for (std::size_t t = 0; t < kTagsPerAisle; ++t) {
      const std::size_t i = s.ids.size();
      auto rng = Rng::stream(seed, kTag, kPoseStream, i);
      const double along = 2.0 + 18.0 * (double(t) + rng.uniform(0.0, 1.0)) / double(kTagsPerAisle);
      lateral.push_back(rng.uniform(-0.4, 0.4));
      s.ids.push_back("aisle" + std::to_string(a) + "-" + std::to_string(t));
      s.specs.push_back({aisle_pose(a, along, lateral.back(), rng.uniform(-12.0, 12.0)), 20e3,
                         1.0});
      s.join_s.push_back(0.0);
    }
  }

  // Three surveyed anchors near the dock; they never churn.
  const std::size_t anchors[] = {5, kTagsPerAisle + 16, 3 * kTagsPerAisle + 10};
  for (const std::size_t i : anchors) {
    const auto& p = s.specs[i].pose;
    s.mesh.anchors.push_back({std::uint32_t(i), p.distance_m * std::cos(deg2rad(p.azimuth_deg)),
                              p.distance_m * std::sin(deg2rad(p.azimuth_deg))});
  }

  // Churn: fixed counts of late joins, leaves and moves (so every seed
  // carries the same churn load), on a seeded pick of non-anchor tags at
  // seeded times.
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < s.ids.size(); ++i) {
    if (std::find(std::begin(anchors), std::end(anchors), i) == std::end(anchors)) {
      order.push_back(i);
    }
  }
  for (std::size_t k = 0; k + 1 < order.size(); ++k) {  // seeded Fisher-Yates
    auto rng = Rng::stream(seed, kTag, kChurnStream, k);
    const auto j = std::size_t(rng.uniform_int(std::int64_t(k), std::int64_t(order.size()) - 1));
    std::swap(order[k], order[j]);
  }
  for (std::size_t k = 0; k < kJoins + kLeaves + kMoves; ++k) {
    const std::size_t i = order[k];
    auto rng = Rng::stream(seed, kTag, kChurnStream, order.size() + i);
    const double t = rng.uniform(0.05, 0.95) * horizon_s;
    if (k < kJoins) {
      s.join_s[i] = t;
    } else if (k < kJoins + kLeaves) {
      s.leaves.push_back({i, t});
    } else {
      s.moves.push_back({i, t, aisle_pose(i / kTagsPerAisle, rng.uniform(2.0, 20.0), lateral[i],
                                          s.specs[i].pose.orientation_deg)});
    }
  }

  // Rack faces: a steel wall 1.6 m to the right of every aisle.
  for (std::size_t a = 0; a < kAisles; ++a) {
    const double th = deg2rad(aisle_deg(a));
    const double ux = std::cos(th), uy = std::sin(th);
    for (const double side : {-1.6}) {
      s.scene.walls.push_back({1.5 * ux - side * uy, 1.5 * uy + side * ux, 20.5 * ux - side * uy,
                               20.5 * uy + side * ux, 2.0});
    }
  }
  // Two pickers pacing across the aisles.
  s.scene.blockers.push_back({7.0, -5.0, 0.0, 1.0, 0.4, 25.0});
  s.scene.blockers.push_back({13.0, 5.0, 0.0, -1.2, 0.4, 25.0});
  // A truck at the dock door once a second: 18 dB across every AP ray.
  for (double k = 0.0; k + 1.0 <= horizon_s + 1e-9; k += 1.0) {
    auto rng = Rng::stream(seed, kTag, kDockStream, std::uint64_t(k));
    const double start = k + 0.4 + rng.uniform(0.0, 0.2);
    s.blockages.push_back({start, start + 0.1, 18.0});
  }
  if (horizon_s < 1.0) s.blockages.push_back({0.2 * horizon_s, 0.4 * horizon_s, 18.0});
  return s;
}

cell::CellEngine build_engine(const Scenario& s) {
  cell::CellEngine engine(office_channel(), s.cfg);
  engine.reserve_nodes(s.ids.size());
  for (std::size_t i = 0; i < s.ids.size(); ++i) engine.add_node(s.ids[i], s.specs[i], s.join_s[i]);
  for (const auto& l : s.leaves) engine.schedule_leave(l.node, l.time_s);
  for (const auto& m : s.moves) engine.schedule_move(m.node, m.time_s, m.pose);
  for (const auto& b : s.blockages) engine.schedule_blockage(b.start_s, b.end_s, b.loss_db);
  engine.set_multipath(s.scene);
  engine.set_mesh(s.mesh);
  return engine;
}

std::string report_digest(const cell::CellReport& r) {
  Digest d;
  d.add(r.duration_s);
  d.add(std::uint64_t(r.service_rounds));
  d.add(std::uint64_t(r.events_dispatched));
  d.add(std::uint64_t(r.peak_population));
  d.add(std::uint64_t(r.final_population));
  d.add(r.aggregate_goodput_bps);
  d.add(r.cell_capacity_bps);
  d.add(r.stable);
  for (const auto& n : r.nodes) {
    d.add(n.id.view());
    for (const double x : {n.join_time_s, n.leave_time_s, n.offered_bits, n.delivered_bits,
                           n.mean_latency_s, n.p50_latency_s, n.p95_latency_s, n.peak_queue_bits,
                           n.final_queue_bits, n.service_rate_bps}) {
      d.add(x);
    }
    d.add(std::uint64_t(n.rounds_served));
  }
  const auto& m = r.mesh;
  for (const std::size_t x : {m.discoveries, m.reroutes, m.forwards, m.orphan_sweeps,
                              m.delivered_chunks, m.max_hop_count, m.connected, m.population}) {
    d.add(std::uint64_t(x));
  }
  d.add(m.relayed_bits);
  d.add(m.dropped_bits);
  d.add(m.peak_relay_queue_bits);
  for (const auto& n : m.nodes) {
    for (const std::uint64_t x : {std::uint64_t(n.node), std::uint64_t(n.hop_count),
                                  std::uint64_t(n.next_hop), std::uint64_t(n.origin_chunks)}) {
      d.add(x);
    }
    d.add(n.reachable);
    d.add(n.localized);
    d.add(n.radar_fix);
    for (const double x : {n.route_margin_db, n.relayed_bits, n.origin_bits,
                           n.mean_relay_latency_s, n.in_flight_bits, n.est_x_m, n.est_y_m,
                           n.pos_error_m}) {
      d.add(x);
    }
  }
  return d.hex();
}

/// One scenario run stepped sweep by sweep (begin is setup, not a step).
struct Run {
  double setup_s = 0.0;
  std::vector<double> steps_s;
  double finish_s = 0.0;
  cell::CellReport report;
  std::size_t memory_bytes = 0;
  std::size_t population = 0;
};

std::size_t sweeps(const Scenario& s) { return std::size_t(std::llround(s.horizon_s / kPeriodS)); }

// Sweep k runs at k * period; stepping to (k + 1/2) * period dispatches
// exactly that sweep plus the churn before the next one, whatever rounding
// the engine's accumulated sweep clock carries.
double step_limit_s(std::size_t k) { return (double(k) + 0.5) * kPeriodS; }

/// `between(k)`, if set, runs untimed before sweep k.
Run run_once(const Scenario& s, std::uint64_t seed,
             const std::function<void(std::size_t)>& between = {}) {
  Run run;
  const auto t0 = Clock::now();
  cell::CellEngine engine = build_engine(s);
  engine.begin(s.horizon_s, seed);
  run.setup_s = since(t0);
  for (std::size_t k = 0; k < sweeps(s); ++k) {
    if (between) between(k);
    const auto t = Clock::now();
    engine.advance_to(step_limit_s(k));
    run.steps_s.push_back(since(t));
  }
  const auto t = Clock::now();
  run.report = engine.finish();
  run.finish_s = since(t);
  run.memory_bytes = engine.memory_bytes();
  run.population = engine.population();
  return run;
}

std::string one_worker_digest(std::uint64_t seed, double horizon_s) {
  const Scenario s = make_scenario(seed, 1, horizon_s);
  cell::CellEngine engine = build_engine(s);
  return report_digest(engine.run(s.horizon_s, seed));
}

Result run_untraced(const Options& opt) {
  Result r;
  // Runs cycle through kInstances seeded warehouses; quality metrics pool
  // one run of each, which keeps their seed-to-seed spread small.
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

  std::vector<double> setups, radar_err, dv_hop_err, bytes_per_node;
  // A cycle is one run of each warehouse; a step is one of its sweeps.
  // Every 50th sweep is preceded by a one-thread reference round. Short
  // rounds on every worker were dominated by wake-up latency, which on the
  // tuning host flipped between 0.3 and 0.7 ms from run to run whatever the
  // sweeps did. Of one-thread rounds, a 1 MiB chirp tracked the serial
  // discovery sweeps (p99) better than cache-sized ones.
  const std::size_t per_run = sweeps(scenarios[0]);
  const std::size_t refs_per_run = per_run / kReferenceEvery;
  FastestRepeat timing(kInstances * per_run, kInstances, kInstances * refs_per_run,
                       double(kInstances) * kHorizonS, kReferenceNominalS);
  ReferenceLoad load(1, 1, kReferenceSamples);
  std::size_t steps = 0;
  std::vector<std::string> digests;
  double offered = 0.0, delivered = 0.0;
  std::size_t relayed = 0, discoveries = 0;
  const auto start = Clock::now();
  for (std::size_t rep = 0; rep < kInstances || since(start) < opt.seconds; ++rep) {
    const std::size_t i = rep % kInstances;
    const Run run = run_once(scenarios[i], seeds[i], [&](std::size_t k) {
      if (k % kReferenceEvery == 0 && k / kReferenceEvery < refs_per_run) {
        timing.reference(i * refs_per_run + k / kReferenceEvery, load.round());
      }
    });
    setups.push_back(run.setup_s);
    for (std::size_t k = 0; k < run.steps_s.size(); ++k) {
      timing.step(i * per_run + k, run.steps_s[k]);
    }
    timing.tail(i, run.finish_s);
    steps += run.steps_s.size();
    const std::string digest = report_digest(run.report);
    if (rep >= kInstances) {
      if (digest != digests[i]) fail_check(r, "a repeated run produced a different report");
      continue;
    }
    digests.push_back(digest);
    const auto& report = run.report;
    if (report.service_rounds < sweeps(scenarios[i])) fail_check(r, "a service sweep went missing");
    for (const auto& n : report.nodes) {
      offered += n.offered_bits;
      delivered += n.delivered_bits;
    }
    // Radar fixes of AP-direct tags set fix_err; relayed tags carry DV-hop
    // estimates an order of magnitude coarser, reported as a note.
    for (const auto& m : report.mesh.nodes) {
      if (m.localized) (m.radar_fix ? radar_err : dv_hop_err).push_back(m.pos_error_m);
      if (m.hop_count >= 2) ++relayed;
    }
    discoveries += report.mesh.discoveries;
    bytes_per_node.push_back(double(run.memory_bytes) / double(run.population));
  }
  r.attempted = steps;
  if (one_worker != digests[0]) {
    fail_check(r, "report at 1 worker differs from the report at " +
                      std::to_string(opt.workers) + " workers");
  }
  if (relayed == 0 || radar_err.empty() || offered <= 0.0) {
    fail_check(r, "the mesh relayed nothing or localized nobody");
  }
  Digest all;
  for (const auto& d : digests) all.add(std::string_view(d));
  r.digest = all.hex();

  double bytes = 0.0;
  for (const double b : bytes_per_node) bytes += b / double(bytes_per_node.size());
  r.metrics.push_back({"setup_s", "s", timing.scale() * median(setups)});
  timing.add_metrics(r);
  r.metrics.push_back({"fail_frac", "ratio", (offered - delivered) / offered});
  r.metrics.push_back({"fix_err_p50_cm", "cm", 100.0 * median(radar_err)});
  r.metrics.push_back({"state_bytes_per_node", "B", bytes});
  r.metrics.push_back({"peak_rss_mb", "MB", peak_rss_mb()});
  r.notes.push_back("scenario: " + std::to_string(kAisles * kTagsPerAisle) + " tags x " +
                    std::to_string(kInstances) + " warehouses, " + std::to_string(setups.size()) +
                    " runs of " + std::to_string(sweeps(scenarios[0])) + " sweeps; per warehouse " +
                    std::to_string(double(discoveries) / kInstances) + " discoveries, " +
                    std::to_string(double(relayed) / kInstances) +
                    " relayed tags; DV-hop fix error p50 " + std::to_string(median(dv_hop_err)) +
                    " m");
  return r;
}

/// Per-pass replay accumulators (seconds).
struct Replay {
  double region = 0.0, probe = 0.0, sdm = 0.0, path_set = 0.0, discover = 0.0;
  double fusion = 0.0, fixes = 0.0;
  double alive_node_sweeps = 0.0;
};

Result run_traced(const Options& opt) {
  Result r;
  const Scenario s = make_scenario(opt.seed, opt.workers, kHorizonS);
  const channel::BackscatterChannel prototype = office_channel();
  const sim::TrialRunner runner(opt.workers);
  const ap::Localizer localizer;

  double untraced_wall = 0.0;
  (void)run_once(s, opt.seed);  // warm-up: the first run in a process is slower
  {
    const Run run = run_once(s, opt.seed);
    untraced_wall = run.finish_s;
    for (const double x : run.steps_s) untraced_wall += x;
  }

  Ledger ledger;
  Replay rp;
  double sweep_s = 0.0, finish_s = 0.0, traced_wall = 0.0;
  std::vector<double> region_ns;
  std::optional<Counts> first_counts;
  std::size_t passes = 0;
  const auto start = Clock::now();
  while (passes < kMinTracedPasses || since(start) < opt.seconds) {
    cell::CellEngine engine = build_engine(s);
    engine.begin(s.horizon_s, opt.seed);
    obs::set_enabled(true, false);
    obs::Registry::global().reset();
    std::uint64_t discoveries = 0;
    mesh::NeighborTable table;
    double replay_s = 0.0;
    const auto p0 = Clock::now();
    for (std::size_t k = 0; k < sweeps(s); ++k) {
      const auto t = Clock::now();
      engine.advance_to(step_limit_s(k));
      sweep_s += since(t);

      // Replay estimates of what the sweep just ran, telemetry off.
      const auto q0 = Clock::now();
      obs::set_enabled(false, false);
      const double now_s = double(k) * kPeriodS;
      channel::BackscatterChannel ch = prototype;
      ch.set_multipath(s.scene);
      ch.set_path_time_s(now_s);
      const double blockage_db = s.blockage_db_at(now_s);
      ch.config().blockage_loss_db = blockage_db;
      const std::size_t n = engine.node_count();
      std::vector<std::size_t> alive;
      std::vector<channel::NodePose> poses;
      std::vector<std::uint8_t> alive_flags(n, 0);
      for (std::size_t i = 0; i < n; ++i) {
        if (!engine.node_alive(i)) continue;
        alive.push_back(i);
        poses.push_back(engine.node_pose(i));
        alive_flags[i] = 1;
      }
      rp.alive_node_sweeps += double(alive.size());
      auto q = Clock::now();
      runner.for_each(alive.size(), [](std::size_t) {});
      const double noop = since(q);
      std::vector<double> rates(alive.size(), 0.0);
      q = Clock::now();
      runner.for_each(alive.size(), [&](std::size_t j) {
        rates[j] = cell::probe_service_rate_bps(ch, poses[j], s.cfg.rate);
      });
      const double full = since(q);
      rp.region += noop;
      rp.probe += full - noop;
      q = Clock::now();
      (void)cell::sdm_partition(poses, s.cfg.network.sdm_min_separation_deg);
      rp.sdm += since(q);
      q = Clock::now();
      for (const auto& p : poses) (void)ch.node_path_set(p);
      rp.path_set += since(q);

      const std::uint64_t d = obs::Registry::global().counter_value("mesh.route_discovery");
      if (d != discoveries) {
        discoveries = d;
        std::vector<double> xs(n), ys(n);
        std::vector<std::uint8_t> direct(n, 0);
        for (std::size_t i = 0; i < n; ++i) {
          const auto& p = engine.node_pose(i);
          xs[i] = p.distance_m * std::cos(deg2rad(p.azimuth_deg));
          ys[i] = p.distance_m * std::sin(deg2rad(p.azimuth_deg));
        }
        for (std::size_t j = 0; j < alive.size(); ++j) direct[alive[j]] = rates[j] > 0.0;
        q = Clock::now();
        table = mesh::build_neighbor_table(s.mesh, s.scene, blockage_db, 0.0, xs, ys,
                                           alive_flags, now_s);
        (void)mesh::build_routes(table, direct, s.mesh.max_ttl);
        rp.discover += since(q);
      }
      obs::set_enabled(true, false);
      replay_s += since(q0);
    }
    const auto t = Clock::now();
    const cell::CellReport report = engine.finish();
    finish_s += since(t);
    traced_wall += since(p0) - replay_s;
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

    // Replay of finish(): anchor fusion and the radar fixes of AP-direct tags.
    channel::BackscatterChannel ch = prototype;
    ch.set_multipath(s.scene);
    ch.set_path_time_s(double(sweeps(s) - 1) * kPeriodS);
    ch.config().blockage_loss_db = s.blockage_db_at(s.horizon_s);
    std::vector<mesh::MeshAnchor> anchors(s.mesh.anchors.begin(), s.mesh.anchors.end());
    auto q = Clock::now();
    (void)mesh::fuse_anchor_positions(table, anchors, s.mesh.mean_hop_m);
    rp.fusion += since(q);
    q = Clock::now();
    for (std::size_t i = 0; i < report.mesh.nodes.size(); ++i) {
      if (report.mesh.nodes[i].hop_count != 1 || !engine.node_alive(i)) continue;
      auto rng = Rng::stream(opt.seed, mesh::kMeshStreamTag, std::uint64_t(i));
      (void)localizer.localize(ch, engine.node_pose(i), rng);
    }
    rp.fixes += since(q);
    ++passes;
  }
  r.attempted = passes * sweeps(s);

  const double n = double(passes);
  set_counts(ledger, *first_counts);
  ledger.set("cell.sweep_s", sweep_s / n);
  ledger.set("sim.region_s", rp.region / n);
  ledger.set("channel.probe_s", rp.probe / n);
  ledger.set("channel.path_set_s", rp.path_set / n);
  ledger.set("cell.sdm_s", rp.sdm / n);
  ledger.set("mesh.discover_s", rp.discover / n);
  ledger.set("mesh.fusion_s", rp.fusion / n);
  ledger.set("ap.localize_s", rp.fixes / n);
  ledger.set("cell.self_s", (sweep_s + finish_s - rp.region - rp.probe - rp.sdm - rp.discover -
                             rp.fusion - rp.fixes) / n);
  ledger.set("cell.skip_ratio", rp.alive_node_sweeps > 0.0
                                    ? ledger.get("cell.sweeps.skipped_nodes") * n /
                                          rp.alive_node_sweeps
                                    : 0.0);
  ledger.set("sim.region_ns", median(region_ns));
  for (const char* row : {"sim.region_s", "channel.probe_s", "cell.sdm_s", "mesh.discover_s",
                          "mesh.fusion_s", "ap.localize_s"}) {
    ledger.mark(row, Ledger::Kind::kWork);
  }
  ledger.mark("cell.self_s", Ledger::Kind::kResidual);
  r.metrics = ledger.finish(traced_wall / n, untraced_wall, r.notes);
  r.notes.push_back("traced passes: " + std::to_string(passes) +
                    " scenario runs; region, probe, SDM, path-set, discovery, fusion and "
                    "final-fix rows are replay estimates on each sweep's inputs");
  return r;
}

}  // namespace

Result run_aisle_mesh(const Options& opt) {
  if (opt.digest_only) {
    const Scenario s = make_scenario(opt.seed, opt.workers, kShortHorizonS);
    Result r;
    r.digest = report_digest(run_once(s, opt.seed).report);
    r.attempted = sweeps(s);
    return r;
  }
  return opt.trace ? run_traced(opt) : run_untraced(opt);
}

}  // namespace scenario_bench
