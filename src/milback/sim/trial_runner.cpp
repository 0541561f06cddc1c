#include "milback/sim/trial_runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "milback/core/contract.hpp"
#include "milback/obs/profile.hpp"
#include "milback/obs/registry.hpp"

namespace milback::sim {

namespace {

// Pool telemetry. `regions`/`tasks` are schedule-independent (kSim); which
// worker ran how many tasks is not, so the utilization metrics are kRuntime
// and stay out of the deterministic exports.
struct SimObs {
  obs::Counter regions;        ///< sim.regions — for_each calls dispatched.
  obs::Counter tasks;          ///< sim.tasks — total indices executed.
  obs::Counter steals;         ///< sim.steals — tasks pulled by helper threads.
  obs::Histogram worker_tasks; ///< sim.worker_tasks — tasks per worker/region.
  obs::Histogram region_ns;    ///< sim.region_ns — wall time per region.
};

const SimObs& sim_obs() {
  static const SimObs instance = [] {
    auto& r = obs::Registry::global();
    SimObs o;
    o.regions = r.counter("sim.regions");
    o.tasks = r.counter("sim.tasks");
    o.steals = r.counter("sim.steals", obs::MetricClass::kRuntime);
    o.worker_tasks = r.histogram("sim.worker_tasks",
                                 obs::HistogramSpec{1.0, 1.5, 40},
                                 obs::MetricClass::kRuntime);
    o.region_ns = r.histogram("sim.region_ns", obs::profile_ns_spec(),
                              obs::MetricClass::kRuntime);
    return o;
  }();
  return instance;
}

// Set while this thread runs inside a for_each region: on the caller for the
// whole call (serial path included) and on every helper it starts. A region
// entered under the mark runs inline, so nesting never starts a second pool.
thread_local bool t_in_region = false;

// Marks the calling thread for one for_each call; the previous mark comes
// back on scope exit, exceptions included.
struct RegionMark {
  bool outer = std::exchange(t_in_region, true);
  ~RegionMark() { t_in_region = outer; }
};

}  // namespace

// milback-analyze: no-contract(any requested value is valid; non-positive means resolve from env/hardware)
int resolve_thread_count(int requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("MILBACK_SIM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) {
      return static_cast<int>(std::min(v, 1024L));
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void TrialRunner::for_each(std::size_t n,
                           const std::function<void(std::size_t)>& fn) const {
  MILBACK_REQUIRE(bool(fn), "TrialRunner::for_each: fn must be callable");
  if (n == 0) return;
  sim_obs().regions.add();
  sim_obs().tasks.add(n);
  const obs::ProfileScope region_profile(sim_obs().region_ns);

  // Nesting rule: only the outermost region is parallel.
  const std::size_t workers =
      t_in_region ? 1 : std::min<std::size_t>(static_cast<std::size_t>(threads_), n);
  const RegionMark mark;
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    sim_obs().worker_tasks.record(double(n));
    return;
  }

  // Dynamic scheduling: workers pull the next free index. Completion order is
  // arbitrary, but each index runs exactly once and (per the class contract)
  // writes only its own slot, so results do not depend on the schedule.
  std::atomic<std::size_t> next{0};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  const auto worker = [&](bool helper) {
    if (helper) t_in_region = true;  // Helper threads exit with the region.
    std::size_t executed = 0;
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) break;
      try {
        fn(i);
        ++executed;
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        // Park the shared index past the end so peers stop pulling new work.
        next.store(n, std::memory_order_relaxed);
        break;
      }
    }
    if (executed > 0) {
      sim_obs().worker_tasks.record(double(executed));
      if (helper) sim_obs().steals.add(executed);
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  // Helper threads flush their thread-local metric sinks when they exit,
  // before join() returns — merged state is complete once for_each returns.
  for (std::size_t w = 1; w < workers; ++w)
    pool.emplace_back(worker, /*helper=*/true);
  worker(/*helper=*/false);  // The calling thread is worker 0.
  for (auto& t : pool) t.join();

  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace milback::sim
