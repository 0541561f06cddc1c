// loc_stream: one thread calling ap::Localizer::localize back to back.
//
// Each step is one Field-2 burst (five 18 us sawtooth chirps, 90 us of air
// time) for one of 1024 seeded poses in a two-wall indoor office. Every
// fourth burst runs on a copy of the channel whose direct ray is blocked, so
// the reflector-aware localizer takes its two-pass NLoS path there: the
// one-pass cost sets the median step, the two-pass cost the p99. Only the radar, dsp,
// channel and ap layers run; cell, mesh and sim do nothing here.
#include <sched.h>

#include <cmath>
#include <optional>

#include "common.hpp"
#include "milback/ap/localizer.hpp"
#include "milback/channel/backscatter_channel.hpp"
#include "milback/obs/registry.hpp"
#include "milback/radar/aoa.hpp"
#include "milback/radar/background_subtraction.hpp"
#include "milback/radar/range_estimator.hpp"
#include "milback/radar/range_fft.hpp"
#include "milback/util/rng.hpp"
#include "milback/util/units.hpp"

namespace scenario_bench {

namespace {

using namespace milback;

constexpr std::uint64_t kTag = 0x6c6f635f73747265ULL;  // "loc_stre"
constexpr std::uint64_t kPoseStream = 0, kBurstStream = 1;
constexpr std::size_t kPoses = 1024;
constexpr std::size_t kRangeStrata = kPoses / 8;
constexpr std::size_t kBlockedEvery = 4;      ///< Bursts 3, 7, 11, ... are blocked.
constexpr double kBlockageLossDb = 25.0;
constexpr std::size_t kReferenceBursts = 4096;  ///< Fixed set: quality metrics + digest.
constexpr std::size_t kPinBursts = kPoses;      ///< Bursts per CPU pin: 1 pose cycle.
constexpr std::size_t kRecheckBursts = 64;      ///< Re-run untimed for determinism.
constexpr std::size_t kPassBursts = kPoses;     ///< One traced pass: every pose once.
constexpr std::size_t kSetups = 5;
constexpr std::size_t kReferenceEvery = 16;  ///< Bursts between reference rounds.
constexpr int kReferenceChirps = 4;           ///< Per round, on this one thread.
constexpr double kReferenceNominalS = 0.35e-3;  ///< A quiet vCPU of the tuning host.
constexpr double kBurstAirtimeS = 90e-6;  ///< Five 18 us chirps.
constexpr double kToleranceM = 0.15;      ///< A fix farther off than this is a miss.
// Plausibility ceilings: a localizer that misses this often, or this far,
// is broken rather than slow.
constexpr double kMaxFailFrac = 0.40;
constexpr double kMaxMedianErrorM = 0.20;

struct Scene {
  channel::BackscatterChannel clear;
  channel::BackscatterChannel blocked;
  ap::Localizer localizer;
  std::vector<channel::NodePose> poses;
};

// The surveyed room: two walls, each 0.6 m outside a corridor at +-12 deg
// azimuth. They are the NLoS lifeline of nodes in those corridors.
constexpr double kCorridorDeg = 12.0;
constexpr double kWallOffsetM = 0.6;

channel::NodePose pose_at(double x_m, double y_m, double orientation_deg) {
  return channel::NodePose{std::hypot(x_m, y_m), rad2deg(std::atan2(y_m, x_m)),
                           orientation_deg};
}

// 1024 poses. Pose 4m+3 is the blocked one of every four bursts: those 256
// sit in the two wall corridors (128 range strata over 1.5-6 m each) where
// a wall echo can carry the fix. The other 768 cover a 128 x 6 grid of
// range (1-6 m) and azimuth (+-25 deg) strata. Seeds jitter every pose
// inside its cell. 1024 distinct poses put 10 steps beyond the p99 of the
// per-pose times and keep the seed-to-seed spread of the miss rate and fix
// error well inside their bounds.
std::vector<channel::NodePose> make_poses(std::uint64_t seed) {
  std::vector<channel::NodePose> poses;
  std::size_t clear = 0, blocked = 0;
  for (std::size_t i = 0; i < kPoses; ++i) {
    auto rng = Rng::stream(seed, kTag, kPoseStream, i);
    const double orientation = rng.uniform(-15.0, 15.0);
    if (i % kBlockedEvery == kBlockedEvery - 1) {
      const double side = blocked % 2 == 0 ? 1.0 : -1.0;
      const double along = 1.5 + 4.5 * (double(blocked / 2) + rng.uniform(0.0, 1.0)) /
                           double(kRangeStrata);
      const double lateral = rng.uniform(-0.2, 0.2);
      const double th = deg2rad(side * kCorridorDeg);
      poses.push_back(pose_at(along * std::cos(th) - lateral * std::sin(th),
                              along * std::sin(th) + lateral * std::cos(th), orientation));
      ++blocked;
    } else {
      channel::NodePose p;
      p.distance_m = 1.0 + 5.0 * (double(clear % kRangeStrata) + rng.uniform(0.0, 1.0)) /
                               double(kRangeStrata);
      p.azimuth_deg =
          -25.0 + 50.0 * (double(clear / kRangeStrata) + rng.uniform(0.0, 1.0)) / 6.0;
      p.orientation_deg = orientation;
      poses.push_back(p);
      ++clear;
    }
  }
  return poses;
}

Scene make_scene(std::uint64_t seed) {
  auto clear = office_channel();
  channel::MultipathConfig walls;
  for (const double side : {1.0, -1.0}) {
    const double th = deg2rad(side * kCorridorDeg);
    const double ux = std::cos(th), uy = std::sin(th);
    const double nx = -uy * side * kWallOffsetM, ny = ux * side * kWallOffsetM;
    walls.walls.push_back({0.5 * ux + nx, 0.5 * uy + ny, 6.8 * ux + nx, 6.8 * uy + ny, 6.0});
  }
  clear.set_multipath(walls);
  auto blocked = clear;
  blocked.config().blockage_loss_db = kBlockageLossDb;
  ap::LocalizerConfig cfg;
  cfg.reflector_aware = true;
  return Scene{std::move(clear), std::move(blocked), ap::Localizer(cfg), make_poses(seed)};
}

const channel::BackscatterChannel& burst_channel(const Scene& s, std::size_t k) {
  return k % kBlockedEvery == kBlockedEvery - 1 ? s.blocked : s.clear;
}

Rng burst_rng(std::uint64_t seed, std::size_t k) {
  return Rng::stream(seed, kTag, kBurstStream, k);
}

double fix_error_m(const channel::NodePose& pose, const ap::LocalizationResult& r) {
  const double tx = pose.distance_m * std::cos(deg2rad(pose.azimuth_deg));
  const double ty = pose.distance_m * std::sin(deg2rad(pose.azimuth_deg));
  const double fx = r.range_m * std::cos(deg2rad(r.angle_deg));
  const double fy = r.range_m * std::sin(deg2rad(r.angle_deg));
  return std::hypot(fx - tx, fy - ty);
}

void add_result(Digest& d, const ap::LocalizationResult& r) {
  d.add(r.detected);
  d.add(r.range_m);
  d.add(r.angle_deg);
  d.add(r.detection_snr_db);
  d.add(r.aoa_offset_deg.has_value());
  d.add(r.aoa_offset_deg.value_or(0.0));
  d.add(r.steered_azimuth_deg);
  d.add(r.nlos_fallback);
  d.add(r.reflector_wall);
}

bool same_result(const ap::LocalizationResult& a, const ap::LocalizationResult& b) {
  Digest da, db;
  add_result(da, a);
  add_result(db, b);
  return da.hex() == db.hex();
}

/// Stage times of the composed localize passes (seconds).
struct Stages {
  double synthesize = 0.0, range_fft = 0.0, subtract = 0.0, cfar_aoa = 0.0;
  double path_set = 0.0, nlos_pass = 0.0;
  double beat_samples = 0.0;
  std::size_t passes = 0;
};

// Localizer::localize rebuilt from its public stages, drawing from `rng` in
// the same order, so the result must equal localize()'s field for field.
// Each stage is timed; the traced run compares and attributes.
ap::LocalizationResult composed_localize(const Scene& s,
                                         const channel::BackscatterChannel& ch,
                                         const channel::NodePose& pose, Rng& rng,
                                         Stages& st) {
  const auto& cfg = s.localizer.config();
  ap::LocalizationResult result;
  result.steered_azimuth_deg =
      pose.azimuth_deg + rng.gaussian(0.0, ch.config().steering_error_sigma_deg);
  const double slope_scale = 1.0 + rng.gaussian(0.0, cfg.slope_error_rms);
  std::vector<rf::SwitchState> states(cfg.n_chirps);
  for (std::size_t i = 0; i < states.size(); ++i) {
    states[i] = (i % 2 == 0) ? rf::SwitchState::kReflect : rf::SwitchState::kAbsorb;
  }
  const auto aligned = ch.fsa().beam_frequency_hz(antenna::FsaPort::kA, pose.orientation_deg);
  const double f_node = aligned.value_or(cfg.chirp.center_frequency_hz());

  struct Pass {
    bool detected = false;
    double range_m = 0.0, snr_db = 0.0, angle_deg = 0.0;
    std::optional<double> aoa_offset_deg;
  };
  const auto run_pass = [&](double steer_deg, bool steer_amplitudes) {
    Pass pass;
    const auto t0 = Clock::now();
    const auto burst = s.localizer.synthesize_burst(ch, pose, states, slope_scale, steer_deg,
                                                    rng, steer_amplitudes);
    const auto t1 = Clock::now();
    std::vector<radar::RangeSpectrum> spectra0, spectra1;
    for (std::size_t i = 0; i < burst.rx0.size(); ++i) {
      spectra0.push_back(
          radar::range_fft(burst.rx0[i], cfg.beat_sample_rate_hz, cfg.chirp, cfg.fft));
      spectra1.push_back(
          radar::range_fft(burst.rx1[i], cfg.beat_sample_rate_hz, cfg.chirp, cfg.fft));
    }
    const auto t2 = Clock::now();
    const auto sub0 = radar::background_subtract(spectra0);
    const auto sub1 = radar::background_subtract(spectra1);
    const auto t3 = Clock::now();
    const auto det = radar::estimate_range(sub0, spectra0.front(), cfg.range);
    if (det) {
      pass.detected = true;
      pass.range_m = det->range_m;
      pass.snr_db = det->snr_db;
      const auto bin = std::size_t(std::llround(det->bin));
      if (bin < sub0.first_difference.size() && bin < sub1.first_difference.size()) {
        pass.aoa_offset_deg = radar::estimate_offset_deg(
            sub0.first_difference[bin], sub1.first_difference[bin], cfg.aoa);
      }
      pass.angle_deg = steer_deg + pass.aoa_offset_deg.value_or(0.0);
    }
    const auto t4 = Clock::now();
    const auto dt = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double>(b - a).count();
    };
    st.synthesize += dt(t0, t1);
    st.range_fft += dt(t1, t2);
    st.subtract += dt(t2, t3);
    st.cfar_aoa += dt(t3, t4);
    st.passes += 1;
    // Beat samples synthesized: every path contribution (node, mirror,
    // modulated ghosts/echoes, clutter) x chirps x both RX antennas.
    const auto returns =
        steer_amplitudes
            ? ch.modulated_returns_steered(antenna::FsaPort::kA, f_node, pose, 1.0, steer_deg)
            : ch.modulated_returns(antenna::FsaPort::kA, f_node, pose, 1.0);
    const double ghosts = cfg.include_multipath_ghosts ? double(returns.size() - 1) : 0.0;
    const double clutter =
        double(ch.clutter_returns(cfg.chirp.center_frequency_hz(), pose).size());
    st.beat_samples += (2.0 + ghosts + clutter) * double(burst.rx0.size()) * 2.0 *
                       double(burst.rx0.front().size());
    return pass;
  };

  const Pass first = run_pass(result.steered_azimuth_deg, false);
  if (first.detected) {
    result.detected = true;
    result.range_m = first.range_m;
    result.detection_snr_db = first.snr_db;
    result.aoa_offset_deg = first.aoa_offset_deg;
    result.angle_deg = first.angle_deg;
  }
  if (!cfg.reflector_aware || ch.multipath().los_only()) return result;

  auto t0 = Clock::now();
  const auto ps = ch.node_path_set(pose);
  const double direct_blocker_db = ps.direct().blocker_loss_db;
  const channel::PropPath* strongest = nullptr;
  double best_advantage_db = cfg.nlos_margin_db;
  for (const auto& p : ps.paths) {
    if (p.bounces == 0 || p.severed()) continue;
    const double advantage_db = ch.indirect_return_advantage_db(
        antenna::FsaPort::kA, f_node, pose, p, direct_blocker_db, p.aoa_deg);
    if (advantage_db > best_advantage_db) {
      best_advantage_db = advantage_db;
      strongest = &p;
    }
  }
  st.path_set += since(t0);
  if (strongest == nullptr || strongest->wall < 0) return result;

  const double steer2_deg =
      strongest->aoa_deg + rng.gaussian(0.0, ch.config().steering_error_sigma_deg);
  const auto before = st;
  const Pass echo = run_pass(steer2_deg, true);
  st.nlos_pass += (st.synthesize - before.synthesize) + (st.range_fft - before.range_fft) +
                  (st.subtract - before.subtract) + (st.cfar_aoa - before.cfar_aoa);
  if (!echo.detected) return result;
  t0 = Clock::now();
  const double half_deg = radar::unambiguous_halfwidth_deg(cfg.aoa);
  const double bearing_deg =
      std::abs(echo.angle_deg - strongest->aoa_deg) <= half_deg ? echo.angle_deg
                                                                 : strongest->aoa_deg;
  double nx = 0.0, ny = 0.0;
  const auto& wall = ch.multipath().walls[std::size_t(strongest->wall)];
  if (channel::nlos_unfold(wall, echo.range_m, bearing_deg, &nx, &ny)) {
    result.detected = true;
    result.range_m = std::hypot(nx, ny);
    result.angle_deg = rad2deg(std::atan2(ny, nx));
    result.detection_snr_db = echo.snr_db;
    result.aoa_offset_deg = echo.aoa_offset_deg;
    result.steered_azimuth_deg = steer2_deg;
    result.nlos_fallback = true;
    result.reflector_wall = strongest->wall;
  }
  st.path_set += since(t0);
  return result;
}

/// CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  return cpus;
}

/// Restricts the calling thread to `cpus`.
void pin(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

/// Scene construction plus one untimed-as-a-step warm-up burst that fills
/// the FFT-plan and window caches.
Scene setup(std::uint64_t seed, double& seconds) {
  const auto t0 = Clock::now();
  Scene s = make_scene(seed);
  auto rng = burst_rng(seed, 0);
  (void)s.localizer.localize(s.clear, s.poses[0], rng);
  seconds = since(t0);
  return s;
}

Result run_untraced(const Options& opt) {
  Result r;
  std::vector<double> setups;
  std::optional<Scene> scene;
  for (std::size_t i = 0; i < kSetups; ++i) {
    double s = 0.0;
    scene.emplace(setup(opt.seed, s));
    setups.push_back(s);
  }
  const Scene& s = *scene;

  // A step of the cycle is one pose on its channel; each repeat draws fresh
  // noise but does the same work. The host's CPUs differ in speed (shared
  // cores), and this loop is one thread: every pose cycle it is pinned to
  // the next allowed CPU, so each pose's repeats visit all of them.
  const std::vector<int> cpus = allowed_cpus();
  FastestRepeat timing(kPoses, 0, kPoses / kReferenceEvery, double(kPoses) * kBurstAirtimeS,
                       kReferenceNominalS);
  ReferenceLoad load(1, kReferenceChirps, 1024);
  std::vector<ap::LocalizationResult> reference;
  std::size_t bursts = 0;
  const auto start = Clock::now();
  for (std::size_t k = 0; k < kReferenceBursts || since(start) < opt.seconds; ++k) {
    if (k % kPinBursts == 0 && !cpus.empty()) {
      pin({cpus[(k / kPinBursts) % cpus.size()]});
    }
    if (k % kReferenceEvery == 0) {
      timing.reference(k % kPoses / kReferenceEvery, load.round());
    }
    auto rng = burst_rng(opt.seed, k);
    const auto t0 = Clock::now();
    auto fix = s.localizer.localize(burst_channel(s, k), s.poses[k % kPoses], rng);
    timing.step(k % kPoses, since(t0));
    if (k < kReferenceBursts) reference.push_back(fix);
    ++bursts;
  }
  pin(cpus);
  r.attempted = bursts;

  // Output checks, outside the timed loop.
  Digest digest;
  std::vector<double> errors;
  std::size_t misses = 0;
  for (std::size_t k = 0; k < reference.size(); ++k) {
    const auto& fix = reference[k];
    add_result(digest, fix);
    if (!fix.detected) {
      ++misses;
      continue;
    }
    const double err = fix_error_m(s.poses[k % kPoses], fix);
    if (!std::isfinite(err)) fail_check(r, "non-finite fix at burst " + std::to_string(k));
    errors.push_back(err);
    if (err > kToleranceM) ++misses;
  }
  for (std::size_t k = 0; k < kRecheckBursts; ++k) {
    auto rng = burst_rng(opt.seed, k);
    const auto again = s.localizer.localize(burst_channel(s, k), s.poses[k % kPoses], rng);
    if (!same_result(again, reference[k])) {
      fail_check(r, "burst " + std::to_string(k) + " is not reproducible");
    }
  }
  const double fail_frac = double(misses) / double(reference.size());
  const double err_p50_m = median(errors);
  if (fail_frac > kMaxFailFrac) fail_check(r, "fail_frac above the plausibility ceiling");
  if (err_p50_m > kMaxMedianErrorM) fail_check(r, "median fix error above the ceiling");

  // The localizer holds no state between bursts; the per-node state of a fix
  // is its burst buffer (both RX antennas x chirps x beat samples).
  auto rng = burst_rng(opt.seed, 0);
  const auto& cfg = s.localizer.config();
  std::vector<rf::SwitchState> states(cfg.n_chirps, rf::SwitchState::kReflect);
  const auto burst =
      s.localizer.synthesize_burst(s.clear, s.poses[0], states, 1.0, 0.0, rng, false);
  double burst_bytes = 0.0;
  for (const auto* side : {&burst.rx0, &burst.rx1}) {
    for (const auto& chirp : *side) burst_bytes += double(chirp.capacity() * sizeof(chirp[0]));
  }

  r.metrics.push_back({"setup_s", "s", timing.scale() * median(setups)});
  timing.add_metrics(r);
  r.metrics.push_back({"fail_frac", "ratio", fail_frac});
  r.metrics.push_back({"fix_err_p50_cm", "cm", 100.0 * err_p50_m});
  r.metrics.push_back({"state_bytes_per_node", "B", burst_bytes});
  r.metrics.push_back({"peak_rss_mb", "MB", peak_rss_mb()});
  r.digest = digest.hex();
  r.notes.push_back("reference set: " + std::to_string(reference.size()) + " bursts, " +
                    std::to_string(misses) + " misses (no fix or > " +
                    std::to_string(kToleranceM) + " m)");
  return r;
}

Result run_traced(const Options& opt) {
  Result r;
  double setup_s = 0.0;
  const Scene s = setup(opt.seed, setup_s);

  // Untraced reference pass: the denominator of trace_overhead.
  const auto u0 = Clock::now();
  for (std::size_t k = 0; k < kPassBursts; ++k) {
    auto rng = burst_rng(opt.seed, k);
    (void)s.localizer.localize(burst_channel(s, k), s.poses[k % kPoses], rng);
  }
  const double untraced_wall = since(u0);

  Ledger ledger;
  Stages st;
  double localize_s = 0.0, traced_wall = 0.0;
  std::size_t passes = 0;
  std::optional<Counts> first_counts;
  Digest digest;
  const auto start = Clock::now();
  while (passes < 2 || since(start) < opt.seconds) {
    obs::set_enabled(true, false);
    obs::Registry::global().reset();
    double replay_s = 0.0;
    const auto p0 = Clock::now();
    for (std::size_t k = 0; k < kPassBursts; ++k) {
      const auto& ch = burst_channel(s, k);
      const auto& pose = s.poses[k % kPoses];
      auto rng = burst_rng(opt.seed, k);
      const auto t0 = Clock::now();
      const auto fix = s.localizer.localize(ch, pose, rng);
      localize_s += since(t0);

      // Replay, with telemetry off so it leaves the program's counts alone.
      const auto t1 = Clock::now();
      obs::set_enabled(false, false);
      auto rng2 = burst_rng(opt.seed, k);
      const auto composed = composed_localize(s, ch, pose, rng2, st);
      if (!same_result(fix, composed)) {
        fail_check(r, "composed passes differ from localize() at burst " + std::to_string(k));
      }
      if (passes == 0) add_result(digest, fix);
      obs::set_enabled(true, false);
      replay_s += since(t1);
    }
    traced_wall += since(p0) - replay_s;
    obs::set_enabled(false, false);
    const Counts counts = read_counts();
    if (first_counts) {
      check_counts_repeat(r, *first_counts, counts);
    } else {
      first_counts = counts;
    }
    ++passes;
  }
  r.attempted = passes * kPassBursts;

  const double n = double(passes);
  set_counts(ledger, *first_counts);
  ledger.set("ap.localize_s", localize_s / n);
  ledger.set("radar.synthesize_s", st.synthesize / n);
  ledger.set("radar.range_fft_s", st.range_fft / n);
  ledger.set("radar.subtract_s", st.subtract / n);
  ledger.set("radar.cfar_aoa_s", st.cfar_aoa / n);
  ledger.set("channel.path_set_s", st.path_set / n);
  ledger.set("ap.nlos_pass_s", st.nlos_pass / n);
  ledger.set("ap.self_s", (localize_s - st.synthesize - st.range_fft - st.subtract -
                           st.cfar_aoa - st.path_set) / n);
  ledger.set("radar.beat_samples", st.beat_samples / n);
  ledger.set("radar.passes", double(st.passes) / n);
  for (const char* row : {"radar.synthesize_s", "radar.range_fft_s", "radar.subtract_s",
                          "radar.cfar_aoa_s", "channel.path_set_s"}) {
    ledger.mark(row, Ledger::Kind::kWork);
  }
  ledger.mark("ap.self_s", Ledger::Kind::kResidual);
  r.metrics = ledger.finish(traced_wall / n, untraced_wall, r.notes);
  r.digest = digest.hex();
  r.notes.push_back("traced passes: " + std::to_string(passes) + " x " +
                    std::to_string(kPassBursts) +
                    " bursts; stage rows are replay timings of the composed passes");
  return r;
}

}  // namespace

Result run_loc_stream(const Options& opt) {
  if (opt.digest_only) {
    Result r;
    double setup_s = 0.0;
    const Scene s = setup(opt.seed, setup_s);
    Digest digest;
    for (std::size_t k = 0; k < kPassBursts; ++k) {
      auto rng = burst_rng(opt.seed, k);
      add_result(digest, s.localizer.localize(burst_channel(s, k), s.poses[k % kPoses], rng));
    }
    r.attempted = kPassBursts;
    r.digest = digest.hex();
    return r;
  }
  return opt.trace ? run_traced(opt) : run_untraced(opt);
}

}  // namespace scenario_bench
