// TrialRunner: worker-count resolution, index coverage, determinism and
// error propagation of the parallel trial engine.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "milback/sim/trial_runner.hpp"
#include "milback/util/rng.hpp"

namespace milback::sim {
namespace {

/// Scoped MILBACK_SIM_THREADS override (restores the prior value on exit).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old) saved_ = old;
    had_value_ = old != nullptr;
    if (value) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_value_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_value_ = false;
};

TEST(TrialRunner, ExplicitRequestWins) {
  const ScopedEnv env("MILBACK_SIM_THREADS", "7");
  EXPECT_EQ(resolve_thread_count(3), 3);
  EXPECT_EQ(TrialRunner(3).threads(), 3);
}

TEST(TrialRunner, EnvOverrideResolves) {
  const ScopedEnv env("MILBACK_SIM_THREADS", "5");
  EXPECT_EQ(resolve_thread_count(0), 5);
}

TEST(TrialRunner, MalformedEnvFallsBackToHardware) {
  for (const char* bad : {"abc", "-2", "0", "4x", ""}) {
    const ScopedEnv env("MILBACK_SIM_THREADS", bad);
    EXPECT_GE(resolve_thread_count(0), 1) << "env='" << bad << "'";
  }
}

TEST(TrialRunner, NoEnvResolvesToAtLeastOne) {
  const ScopedEnv env("MILBACK_SIM_THREADS", nullptr);
  EXPECT_GE(resolve_thread_count(0), 1);
}

TEST(TrialRunner, MapCoversEveryIndexInOrder) {
  const TrialRunner runner(4);
  const auto out =
      runner.map<std::size_t>(257, [](std::size_t i) { return i * 2 + 1; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * 2 + 1);
}

TEST(TrialRunner, ForEachRunsEachIndexExactlyOnce) {
  const TrialRunner runner(4);
  std::vector<std::atomic<int>> hits(100);
  runner.for_each(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(TrialRunner, ZeroTrialsIsANoOp) {
  const TrialRunner runner(4);
  runner.for_each(0, [](std::size_t) { FAIL() << "must not be called"; });
  EXPECT_TRUE(runner.map<int>(0, [](std::size_t) { return 1; }).empty());
}

TEST(TrialRunner, SerialAndParallelAgreeBitIdentically) {
  // The canonical engine contract: trials draw from stateless per-index
  // streams, so results cannot depend on the worker count.
  const auto trial = [](std::size_t i) {
    auto rng = Rng::stream(99, i);
    double acc = 0.0;
    for (int k = 0; k < 10; ++k) acc += rng.gaussian();
    return acc;
  };
  const auto serial = TrialRunner(1).map<double>(64, trial);
  const auto parallel = TrialRunner(4).map<double>(64, trial);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "trial " << i;
  }
}

TEST(TrialRunner, ExceptionPropagatesFromWorker) {
  const TrialRunner runner(4);
  EXPECT_THROW(runner.for_each(32,
                               [](std::size_t i) {
                                 if (i == 7) throw std::runtime_error("trial 7");
                               }),
               std::runtime_error);
}

TEST(TrialRunner, NestedRegionRunsInline) {
  // Nesting rule: a for_each inside another for_each runs every inner index
  // on the thread of the outer task that entered it, whatever either
  // runner's worker count.
  for (const int outer_threads : {1, 4}) {
    SCOPED_TRACE("outer threads " + std::to_string(outer_threads));
    const TrialRunner outer(outer_threads);
    const TrialRunner inner(4);
    std::vector<int> inner_runs(8, 0);
    std::vector<std::uint8_t> foreign(8, 0);
    outer.for_each(8, [&](std::size_t i) {
      const auto self = std::this_thread::get_id();
      std::atomic<bool> moved{false};
      inner.for_each(16, [&](std::size_t) {
        if (std::this_thread::get_id() != self) moved = true;
        ++inner_runs[i];
      });
      foreign[i] = moved ? 1 : 0;
    });
    for (std::size_t i = 0; i < 8; ++i) {
      EXPECT_EQ(inner_runs[i], 16) << "outer task " << i;
      EXPECT_EQ(foreign[i], 0) << "outer task " << i;
    }
  }
}

TEST(TrialRunner, ExceptionPropagatesInSerialMode) {
  const TrialRunner runner(1);
  EXPECT_THROW(
      runner.for_each(4, [](std::size_t) { throw std::runtime_error("boom"); }),
      std::runtime_error);
}

}  // namespace
}  // namespace milback::sim
