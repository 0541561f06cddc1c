// Shared pieces of the scenario benchmark: options, wall-clock helpers,
// order statistics, the report digest, obs counter reads and the per-layer
// cost ledger.
//
// The benchmark measures the MilBack libraries from the outside: every time
// it reports is a steady_clock span the benchmark opens around a call into a
// public entry point (end-to-end times scaled to a reference-speed host, see
// FastestRepeat), and every count is read back from the program's own obs
// registry. Nothing here reaches into library internals.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "milback/channel/backscatter_channel.hpp"

namespace scenario_bench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `t0`.
inline double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Parsed command line.
struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;  ///< Measured window of one run.
  bool trace = false;     ///< Separate traced run: per-layer ledger.
  int workers = 0;        ///< Sweep / epoch workers (min(4, nproc) unless set).
  bool digest_only = false;  ///< Run one short scenario and print its digest.
};

/// One reported metric.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// What a workload hands back to main().
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< Steps executed.
  std::uint64_t failed = 0;     ///< Steps that threw or failed an output check.
  std::vector<Metric> metrics;  ///< End-to-end (untraced) or per-layer (traced).
  std::string digest;           ///< Hash of the simulated outputs.
  std::vector<std::string> notes;  ///< Printed above the result line.
};

/// FNV-1a over the exact bit patterns of report fields: equal digests mean
/// field-for-field identical reports.
class Digest {
 public:
  void add(double x);
  void add(std::uint64_t x);
  void add(bool b) { add(std::uint64_t(b ? 1 : 0)); }
  void add(int x) { add(std::uint64_t(std::int64_t(x))); }
  void add(std::string_view s);
  std::string hex() const;

 private:
  void bytes(const void* p, std::size_t n);
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Median (mean of the two middle values for an even count); 0 when empty.
double median(std::vector<double> v);
/// Linear-interpolated percentile p in [0, 100]; 0 when empty.
double percentile(std::vector<double> v, double p);
/// Number of samples strictly above `x`.
std::size_t count_above(const std::vector<double>& v, double x);
/// Process peak resident set size [MB].
double peak_rss_mb();
/// min(4, hardware threads).
int default_workers();

/// Paper-default hardware in the examples' fixed indoor office
/// (`indoor_office` clutter drawn from Rng(5)): every workload's site is
/// the same surveyed room whatever the seed, which only moves the tags.
milback::channel::BackscatterChannel office_channel();

/// Scenario seed of instance `i` of a workload run: the run seed itself for
/// instance 0, a derived stream for the others.
std::uint64_t instance_seed(std::uint64_t seed, std::uint64_t workload_tag, std::size_t i);

/// A fixed load written out here, independent of the MilBack libraries, so
/// that no change to them can speed it up: each of `threads` threads (the
/// caller and `threads - 1` helpers, woken per round like a TrialRunner
/// region) synthesizes `chirps` chirps of `samples` (a power of two) and
/// transforms each with a radix-2 FFT, the radar's hot loop in miniature.
/// How long a round takes tracks how fast the shared host runs just then.
class ReferenceLoad {
 public:
  ReferenceLoad(int threads, int chirps, std::size_t samples);
  ~ReferenceLoad();
  ReferenceLoad(const ReferenceLoad&) = delete;
  ReferenceLoad& operator=(const ReferenceLoad&) = delete;

  /// Host seconds of one round.
  double round();

 private:
  void helper();
  int chirps_;
  std::size_t samples_;
  std::vector<std::thread> helpers_;
  std::mutex mu_;
  std::condition_variable start_, done_;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  bool stop_ = false;
  double sink_ = 0.0;
};

/// Host times of one input cycle of a workload, kept as the fastest repeat
/// of each part. A run replays the same cycle until its window closes; the
/// program does the same work on every repeat, and load from other tenants
/// of a shared host can only slow a repeat, never speed it up.
///
/// That filters slow moments, not slow minutes: the host's speed also
/// drifts by 10-15% between runs. So the cycle also holds rounds of a
/// ReferenceLoad, kept the same way, and every time is scaled by
/// nominal / (median of their fastest rounds): host seconds on a host that
/// runs a reference round in `nominal_s`.
class FastestRepeat {
 public:
  /// `steps` timed steps, `tails` untimed-as-a-step parts (run finish) and
  /// `references` reference rounds per cycle; `sim_s` is the simulated (or
  /// air) time one cycle covers.
  FastestRepeat(std::size_t steps, std::size_t tails, std::size_t references, double sim_s,
                double nominal_s);

  void step(std::size_t i, double seconds);
  void tail(std::size_t i, double seconds);
  void reference(std::size_t i, double seconds);

  /// Factor from this run's host seconds to reference-speed seconds.
  double scale() const;

  /// Adds rtf (fastest steps plus tails over sim_s), step_p50_ms and
  /// step_p99_ms (over the cycle's steps), all scaled, and notes with the
  /// step count, the fewest repeats of any part, how many steps lie beyond
  /// the p99, the scale and the unscaled values.
  void add_metrics(Result& r) const;

 private:
  struct Slot {
    double best_s = 0.0;
    std::size_t repeats = 0;
  };
  static void keep(Slot& slot, double seconds);
  std::vector<Slot> steps_, tails_, references_;
  double sim_s_, nominal_s_;
};

/// Canonical per-layer counter names, summed over the standalone label
/// ("cell.x") and the sharded labels ("cell.c<k>.x", k < 4).
using Counts = std::map<std::string, std::uint64_t>;
Counts read_counts();

/// Per-layer cost ledger of one traced run. Time rows are seconds per
/// reference pass (mean over the passes of the run); `work` rows and
/// `residual` rows are additive and together should equal the traced wall;
/// `view` rows re-slice time already in other rows.
class Ledger {
 public:
  enum class Kind { kWork, kResidual, kView, kCount, kRatio, kProbe };

  Ledger();
  void set(std::string_view name, double value);
  double get(std::string_view name);
  /// Marks a time row as additive work or as an engine residual.
  void mark(std::string_view name, Kind kind);

  /// Adds trace_overhead and ledger.coverage, prints the table and returns
  /// every per-layer metric, in BENCHMARK.json order.
  std::vector<Metric> finish(double traced_wall_s, double untraced_wall_s,
                             std::vector<std::string>& notes);

 private:
  struct Row {
    std::string name;
    std::string unit;
    Kind kind;
    double value = 0.0;
  };
  Row& row(std::string_view name);  ///< Aborts on a name not in kRows.
  std::vector<Row> rows_;
};

/// Copies the obs counters of `counts` into the ledger's count rows.
void set_counts(Ledger& ledger, const Counts& counts);

/// Fails `r` when two traced passes disagree on any count.
void check_counts_repeat(Result& r, const Counts& first, const Counts& again);

/// Records a failed output check on `r`.
void fail_check(Result& r, const std::string& what);

// The three workloads (see README.md for why each exists).
Result run_loc_stream(const Options& opt);
Result run_aisle_mesh(const Options& opt);
Result run_campus_4cell(const Options& opt);

}  // namespace scenario_bench
