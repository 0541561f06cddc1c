#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <numbers>
#include <thread>

#include "milback/obs/registry.hpp"
#include "milback/util/rng.hpp"

namespace scenario_bench {

void Digest::bytes(const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= b[i];
    h_ *= 0x100000001b3ULL;
  }
}

void Digest::add(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  bytes(&bits, sizeof bits);
}

void Digest::add(std::uint64_t x) { bytes(&x, sizeof x); }

void Digest::add(std::string_view s) {
  add(std::uint64_t(s.size()));
  bytes(s.data(), s.size());
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * double(v.size() - 1);
  const auto lo = std::size_t(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

std::size_t count_above(const std::vector<double>& v, double x) {
  return std::size_t(std::count_if(v.begin(), v.end(), [x](double s) { return s > x; }));
}

double peak_rss_mb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss would carry
  // over the high-water mark of whatever process exec'd us.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

int default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return int(std::clamp(hw, 1u, 4u));
}

milback::channel::BackscatterChannel office_channel() {
  milback::Rng env_rng(5);
  return milback::channel::BackscatterChannel::make_default(
      milback::channel::Environment::indoor_office(env_rng));
}

std::uint64_t instance_seed(std::uint64_t seed, std::uint64_t workload_tag, std::size_t i) {
  if (i == 0) return seed;
  constexpr std::uint64_t kInstanceStream = 0x696e7374ULL;  // "inst"
  return milback::Rng::stream(seed, workload_tag, kInstanceStream, i).engine()();
}

namespace {

constexpr double kPi = std::numbers::pi;

/// One chirp: a linear FM sweep with an exponential taper, bit-reversed and
/// transformed in place; returns the spectrum's magnitude sum.
double chirp_fft(std::vector<std::complex<double>>& x, int chirp) {
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    const double t = double(i) / double(n);
    x[i] = std::polar(std::exp(-0.5 * t) * (1.0 + 0.1 * chirp),
                      2.0 * kPi * (37.3 * t + 900.0 * t * t));
  }
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(x[i], x[j]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const auto w = std::polar(1.0, -2.0 * kPi / double(len));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> wk(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const auto u = x[i + k], v = x[i + k + len / 2] * wk;
        x[i + k] = u + v;
        x[i + k + len / 2] = u - v;
        wk *= w;
      }
    }
  }
  double sum = 0.0;
  for (const auto& c : x) sum += std::abs(c);
  return sum;
}

double chirps_fft(int chirps, std::size_t samples) {
  std::vector<std::complex<double>> x(samples);
  double sum = 0.0;
  for (int c = 0; c < chirps; ++c) sum += chirp_fft(x, c);
  return sum;
}

}  // namespace

ReferenceLoad::ReferenceLoad(int threads, int chirps, std::size_t samples)
    : chirps_(chirps), samples_(samples) {
  for (int i = 1; i < threads; ++i) helpers_.emplace_back([this] { helper(); });
}

ReferenceLoad::~ReferenceLoad() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  start_.notify_all();
  for (auto& t : helpers_) t.join();
}

void ReferenceLoad::helper() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      start_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    const double sum = chirps_fft(chirps_, samples_);
    std::lock_guard<std::mutex> lock(mu_);
    sink_ += sum;
    if (--pending_ == 0) done_.notify_one();
  }
}

double ReferenceLoad::round() {
  const auto t0 = Clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++generation_;
    pending_ = int(helpers_.size());
  }
  start_.notify_all();
  const double sum = chirps_fft(chirps_, samples_);
  std::unique_lock<std::mutex> lock(mu_);
  done_.wait(lock, [&] { return pending_ == 0; });
  sink_ += sum;
  return since(t0);
}

FastestRepeat::FastestRepeat(std::size_t steps, std::size_t tails, std::size_t references,
                             double sim_s, double nominal_s)
    : steps_(steps), tails_(tails), references_(references), sim_s_(sim_s),
      nominal_s_(nominal_s) {}

void FastestRepeat::keep(Slot& slot, double seconds) {
  slot.best_s = slot.repeats == 0 ? seconds : std::min(slot.best_s, seconds);
  ++slot.repeats;
}

void FastestRepeat::step(std::size_t i, double seconds) { keep(steps_.at(i), seconds); }

void FastestRepeat::tail(std::size_t i, double seconds) { keep(tails_.at(i), seconds); }

void FastestRepeat::reference(std::size_t i, double seconds) {
  keep(references_.at(i), seconds);
}

double FastestRepeat::scale() const {
  std::vector<double> rounds;
  for (const auto& slot : references_) rounds.push_back(slot.best_s);
  return nominal_s_ / median(rounds);
}

void FastestRepeat::add_metrics(Result& r) const {
  std::vector<double> steps;
  double busy_s = 0.0;
  std::size_t repeats = steps_.empty() ? 0 : steps_.front().repeats;
  for (const auto* slots : {&steps_, &tails_, &references_}) {
    for (const auto& slot : *slots) repeats = std::min(repeats, slot.repeats);
  }
  for (const auto* slots : {&steps_, &tails_}) {
    for (const auto& slot : *slots) busy_s += slot.best_s;
  }
  for (const auto& slot : steps_) steps.push_back(slot.best_s);
  const double p50 = percentile(steps, 50.0), p99 = percentile(steps, 99.0);
  const std::size_t beyond = count_above(steps, p99);
  const double k = scale();
  r.metrics.push_back({"rtf", "s/s", k * busy_s / sim_s_});
  r.metrics.push_back({"step_p50_ms", "ms", k * 1e3 * p50});
  r.metrics.push_back({"step_p99_ms", "ms", k * 1e3 * p99});
  r.notes.push_back("time metrics: fastest of >= " + std::to_string(repeats) +
                    " repeats of each of " + std::to_string(steps.size()) + " steps and " +
                    std::to_string(references_.size()) + " reference rounds; " +
                    std::to_string(beyond) + " steps beyond the p99" +
                    (beyond < 10 ? " (fewer than 10: the tail is undersampled)" : ""));
  r.notes.push_back("reference round " + std::to_string(1e3 * nominal_s_ / k) +
                    " ms (nominal " + std::to_string(1e3 * nominal_s_) + " ms): times x " +
                    std::to_string(k) + "; unscaled rtf " + std::to_string(busy_s / sim_s_) +
                    ", step p50 " + std::to_string(1e3 * p50) + " ms, p99 " +
                    std::to_string(1e3 * p99) + " ms");
}

namespace {

constexpr const char* kPlainCounters[] = {
    "ap.localize.calls", "ap.localize.detections", "loc.nlos_fallback",
    "dsp.fft_plan.hits", "dsp.fft_plan.misses",    "dsp.window.hits",
    "dsp.window.misses", "channel.paths_active",   "channel.blockage_sever",
    "sim.regions",       "sim.tasks",              "multicell.epochs",
    "multicell.handoffs"};

constexpr const char* kCellCounters[] = {
    "events.arrival",     "events.service",      "events.join",
    "events.leave",       "events.move",         "events.blockage_start",
    "events.blockage_end", "sweeps",             "sweeps.skipped_nodes"};

constexpr const char* kMeshCounters[] = {"route_discovery", "reroute",
                                         "relay_forward", "orphan_nodes"};

// Sharded engines label their metrics <layer>.c<k>.*; the campus has 4.
constexpr int kMaxCells = 4;

std::uint64_t labeled_sum(milback::obs::Registry& reg, const std::string& layer,
                          const std::string& suffix) {
  std::uint64_t total = reg.counter_value(layer + "." + suffix);
  for (int k = 0; k < kMaxCells; ++k) {
    total += reg.counter_value(layer + ".c" + std::to_string(k) + "." + suffix);
  }
  return total;
}

struct RowSpec {
  const char* name;
  const char* unit;
  Ledger::Kind kind;
};

// Every per-layer metric, in BENCHMARK.json order. Time rows start as
// views; each workload promotes the rows that partition its traced wall.
constexpr RowSpec kRows[] = {
    {"ap.localize_s", "s", Ledger::Kind::kView},
    {"ap.self_s", "s", Ledger::Kind::kView},
    {"ap.nlos_pass_s", "s", Ledger::Kind::kView},
    {"ap.localize.calls", "count", Ledger::Kind::kCount},
    {"ap.localize.detections", "count", Ledger::Kind::kCount},
    {"loc.nlos_fallback", "count", Ledger::Kind::kCount},
    {"ap.detect_ratio", "ratio", Ledger::Kind::kRatio},
    {"radar.synthesize_s", "s", Ledger::Kind::kView},
    {"radar.range_fft_s", "s", Ledger::Kind::kView},
    {"radar.subtract_s", "s", Ledger::Kind::kView},
    {"radar.cfar_aoa_s", "s", Ledger::Kind::kView},
    {"radar.beat_samples", "count", Ledger::Kind::kCount},
    {"radar.passes", "count", Ledger::Kind::kCount},
    {"dsp.fft_plan.hits", "count", Ledger::Kind::kCount},
    {"dsp.fft_plan.misses", "count", Ledger::Kind::kCount},
    {"dsp.window.hits", "count", Ledger::Kind::kCount},
    {"dsp.window.misses", "count", Ledger::Kind::kCount},
    {"dsp.fft_plan.hit_ratio", "ratio", Ledger::Kind::kRatio},
    {"channel.path_set_s", "s", Ledger::Kind::kView},
    {"channel.probe_s", "s", Ledger::Kind::kView},
    {"channel.paths_active", "count", Ledger::Kind::kCount},
    {"channel.blockage_sever", "count", Ledger::Kind::kCount},
    {"cell.sweep_s", "s", Ledger::Kind::kView},
    {"cell.sdm_s", "s", Ledger::Kind::kView},
    {"cell.self_s", "s", Ledger::Kind::kView},
    {"cell.events.arrival", "count", Ledger::Kind::kCount},
    {"cell.events.service", "count", Ledger::Kind::kCount},
    {"cell.events.join", "count", Ledger::Kind::kCount},
    {"cell.events.leave", "count", Ledger::Kind::kCount},
    {"cell.events.move", "count", Ledger::Kind::kCount},
    {"cell.events.blockage_start", "count", Ledger::Kind::kCount},
    {"cell.events.blockage_end", "count", Ledger::Kind::kCount},
    {"cell.sweeps", "count", Ledger::Kind::kCount},
    {"cell.sweeps.skipped_nodes", "count", Ledger::Kind::kCount},
    {"cell.skip_ratio", "ratio", Ledger::Kind::kRatio},
    {"sim.region_s", "s", Ledger::Kind::kView},
    {"sim.regions", "count", Ledger::Kind::kCount},
    {"sim.tasks", "count", Ledger::Kind::kCount},
    {"sim.tasks_per_region", "ratio", Ledger::Kind::kRatio},
    {"sim.region_ns", "ns", Ledger::Kind::kProbe},
    {"mesh.discover_s", "s", Ledger::Kind::kView},
    {"mesh.fusion_s", "s", Ledger::Kind::kView},
    {"mesh.route_discovery", "count", Ledger::Kind::kCount},
    {"mesh.reroute", "count", Ledger::Kind::kCount},
    {"mesh.relay_forward", "count", Ledger::Kind::kCount},
    {"mesh.orphan_nodes", "count", Ledger::Kind::kCount},
    {"multicell.self_s", "s", Ledger::Kind::kView},
    {"multicell.parallel_frac", "ratio", Ledger::Kind::kRatio},
    {"multicell.epochs", "count", Ledger::Kind::kCount},
    {"multicell.handoffs", "count", Ledger::Kind::kCount},
    {"trace_overhead", "ratio", Ledger::Kind::kRatio},
    {"ledger.coverage", "ratio", Ledger::Kind::kRatio},
};

const char* kind_label(Ledger::Kind k) {
  switch (k) {
    case Ledger::Kind::kWork: return "work";
    case Ledger::Kind::kResidual: return "self";
    case Ledger::Kind::kView: return "view";
    case Ledger::Kind::kCount: return "count";
    case Ledger::Kind::kRatio: return "ratio";
    case Ledger::Kind::kProbe: return "probe";
  }
  return "?";
}

}  // namespace

Counts read_counts() {
  auto& reg = milback::obs::Registry::global();
  Counts c;
  for (const char* name : kPlainCounters) c[name] = reg.counter_value(name);
  for (const char* s : kCellCounters) c[std::string("cell.") + s] = labeled_sum(reg, "cell", s);
  for (const char* s : kMeshCounters) c[std::string("mesh.") + s] = labeled_sum(reg, "mesh", s);
  return c;
}

Ledger::Ledger() {
  for (const auto& spec : kRows) rows_.push_back(Row{spec.name, spec.unit, spec.kind, 0.0});
}

Ledger::Row& Ledger::row(std::string_view name) {
  for (auto& r : rows_) {
    if (r.name == name) return r;
  }
  std::cerr << "scenario_bench: unknown ledger row " << name << "\n";
  std::abort();
}

void Ledger::set(std::string_view name, double value) { row(name).value = value; }

double Ledger::get(std::string_view name) { return row(name).value; }

void Ledger::mark(std::string_view name, Kind kind) { row(name).kind = kind; }

void set_counts(Ledger& ledger, const Counts& counts) {
  for (const auto& [name, value] : counts) ledger.set(name, double(value));
  const auto ratio = [](double num, double den) { return den > 0.0 ? num / den : 0.0; };
  ledger.set("ap.detect_ratio", ratio(ledger.get("ap.localize.detections"),
                                      ledger.get("ap.localize.calls")));
  const double hits = ledger.get("dsp.fft_plan.hits");
  ledger.set("dsp.fft_plan.hit_ratio",
             ratio(hits, hits + ledger.get("dsp.fft_plan.misses")));
  ledger.set("sim.tasks_per_region",
             ratio(ledger.get("sim.tasks"), ledger.get("sim.regions")));
}

void check_counts_repeat(Result& r, const Counts& first, const Counts& again) {
  for (const auto& [name, value] : first) {
    const auto it = again.find(name);
    const std::uint64_t other = it == again.end() ? 0 : it->second;
    if (other != value) {
      fail_check(r, "count " + name + " differs between traced passes (" +
                        std::to_string(value) + " vs " + std::to_string(other) + ")");
    }
  }
}

void fail_check(Result& r, const std::string& what) {
  r.correct = false;
  r.failed += 1;
  r.notes.push_back("CHECK FAILED: " + what);
}

std::vector<Metric> Ledger::finish(double traced_wall_s, double untraced_wall_s,
                                   std::vector<std::string>& notes) {
  double additive = 0.0;
  for (const auto& row : rows_) {
    if (row.kind == Kind::kWork || row.kind == Kind::kResidual) additive += row.value;
  }
  set("trace_overhead", untraced_wall_s > 0.0 ? traced_wall_s / untraced_wall_s : 0.0);
  set("ledger.coverage", traced_wall_s > 0.0 ? additive / traced_wall_s : 0.0);

  std::cout << "\nper-layer cost ledger (times: seconds per reference pass; "
               "share: of the traced wall "
            << traced_wall_s << " s)\n";
  char line[160];
  std::snprintf(line, sizeof line, "  %-28s %-6s %16s %-6s %8s\n", "row", "kind", "value",
                "unit", "share");
  std::cout << line;
  std::vector<Metric> out;
  for (const auto& row : rows_) {
    const bool timed = row.unit == "s";
    if (timed && traced_wall_s > 0.0) {
      std::snprintf(line, sizeof line, "  %-28s %-6s %16.9g %-6s %7.2f%%\n", row.name.c_str(),
                    kind_label(row.kind), row.value, row.unit.c_str(),
                    100.0 * row.value / traced_wall_s);
    } else {
      std::snprintf(line, sizeof line, "  %-28s %-6s %16.9g %-6s %8s\n", row.name.c_str(),
                    kind_label(row.kind), row.value, row.unit.c_str(), "");
    }
    std::cout << line;
    out.push_back(Metric{row.name, row.unit, row.value});
  }
  notes.push_back("ledger: work + self rows sum to " + std::to_string(additive) +
                  " s of a " + std::to_string(traced_wall_s) + " s traced wall (coverage " +
                  std::to_string(get("ledger.coverage")) + "); trace_overhead " +
                  std::to_string(get("trace_overhead")));
  return out;
}

}  // namespace scenario_bench
