// Node-side orientation estimator tests: synthetic envelope traces with the
// triangular-chirp double hump.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/node/orientation_estimator.hpp"

namespace milback::node {
namespace {

const double kFs = 1e6;  // MCU sampling rate

// Builds a trace with Gaussian humps at the two sweep crossings of the
// port's aligned frequency for a given orientation.
std::vector<double> trace_for(const antenna::DualPortFsa& fsa, antenna::FsaPort port,
                              double orientation_deg, const radar::ChirpConfig& chirp,
                              double amp = 1.0) {
  const auto f_star = fsa.beam_frequency_hz(port, orientation_deg);
  const auto n = std::size_t(chirp.duration_s * kFs);
  std::vector<double> v(n, 0.0);
  if (!f_star) return v;
  // The up-leg crosses f* at t_up; the down-leg mirrors it about the apex.
  const double t_up = (*f_star - chirp.start_frequency_hz) / chirp.slope_hz_per_s();
  const double hump_sigma_s = 1.5e-6;
  for (const double t_cross : {t_up, chirp.duration_s - t_up}) {
    for (std::size_t i = 0; i < n; ++i) {
      const double d = (double(i) / kFs - t_cross) / hump_sigma_s;
      v[i] += amp * std::exp(-d * d);
    }
  }
  return v;
}

TEST(NodeOrientation, AlignedFrequencyRecovered) {
  antenna::DualPortFsa fsa;
  const auto chirp = radar::field1_chirp();
  const auto trace = trace_for(fsa, antenna::FsaPort::kA, 12.0, chirp);
  const auto f = aligned_frequency_from_trace(trace, kFs, chirp);
  ASSERT_TRUE(f.has_value());
  const auto expected = fsa.beam_frequency_hz(antenna::FsaPort::kA, 12.0);
  ASSERT_TRUE(expected.has_value());
  EXPECT_NEAR(*f, *expected, 80e6);
}

TEST(NodeOrientation, RequiresTriangularChirp) {
  const auto sawtooth = radar::field2_chirp();
  std::vector<double> trace(900, 1.0);
  EXPECT_FALSE(aligned_frequency_from_trace(trace, kFs, sawtooth).has_value());
}

TEST(NodeOrientation, FlatTraceRejected) {
  const auto chirp = radar::field1_chirp();
  std::vector<double> flat(std::size_t(chirp.duration_s * kFs), 0.0);
  EXPECT_FALSE(aligned_frequency_from_trace(flat, kFs, chirp).has_value());
}

TEST(NodeOrientation, SinglePeakRejected) {
  const auto chirp = radar::field1_chirp();
  const auto n = std::size_t(chirp.duration_s * kFs);
  std::vector<double> v(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double d = (double(i) / kFs - 10e-6) / 1.5e-6;
    v[i] = std::exp(-d * d);
  }
  EXPECT_FALSE(aligned_frequency_from_trace(v, kFs, chirp).has_value());
}

TEST(NodeOrientation, FullEstimateAveragesPorts) {
  antenna::DualPortFsa fsa;
  const auto chirp = radar::field1_chirp();
  const double truth = -15.0;
  const auto ta = trace_for(fsa, antenna::FsaPort::kA, truth, chirp);
  const auto tb = trace_for(fsa, antenna::FsaPort::kB, truth, chirp);
  const auto est = estimate_orientation_at_node(ta, tb, kFs, chirp, fsa);
  ASSERT_TRUE(est.has_value());
  EXPECT_TRUE(est->port_a_deg.has_value());
  EXPECT_TRUE(est->port_b_deg.has_value());
  EXPECT_NEAR(est->orientation_deg, truth, 2.0);
  EXPECT_NEAR(0.5 * (*est->port_a_deg + *est->port_b_deg), est->orientation_deg, 1e-9);
}

TEST(NodeOrientation, SinglePortFallback) {
  antenna::DualPortFsa fsa;
  const auto chirp = radar::field1_chirp();
  const auto ta = trace_for(fsa, antenna::FsaPort::kA, 10.0, chirp);
  std::vector<double> dead(ta.size(), 0.0);
  const auto est = estimate_orientation_at_node(ta, dead, kFs, chirp, fsa);
  ASSERT_TRUE(est.has_value());
  EXPECT_TRUE(est->port_a_deg.has_value());
  EXPECT_FALSE(est->port_b_deg.has_value());
  EXPECT_NEAR(est->orientation_deg, 10.0, 2.0);
}

TEST(NodeOrientation, BothPortsDeadReturnsNullopt) {
  antenna::DualPortFsa fsa;
  const auto chirp = radar::field1_chirp();
  std::vector<double> dead(std::size_t(chirp.duration_s * kFs), 0.0);
  EXPECT_FALSE(estimate_orientation_at_node(dead, dead, kFs, chirp, fsa).has_value());
}

// Property sweep: the estimator inverts the scan law across the usable range.
class OrientationSweep : public ::testing::TestWithParam<double> {};

TEST_P(OrientationSweep, RecoversWithinTwoDegrees) {
  antenna::DualPortFsa fsa;
  const auto chirp = radar::field1_chirp();
  const double truth = GetParam();
  const auto ta = trace_for(fsa, antenna::FsaPort::kA, truth, chirp);
  const auto tb = trace_for(fsa, antenna::FsaPort::kB, truth, chirp);
  const auto est = estimate_orientation_at_node(ta, tb, kFs, chirp, fsa);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->orientation_deg, truth, 2.0);
}

INSTANTIATE_TEST_SUITE_P(ScanRange, OrientationSweep,
                         ::testing::Values(-25.0, -20.0, -15.0, -10.0, -5.0, 5.0, 10.0,
                                           15.0, 20.0, 25.0));

}  // namespace
}  // namespace milback::node
