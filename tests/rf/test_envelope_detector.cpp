// Envelope detector model tests.
#include <gtest/gtest.h>

#include <cmath>

#include "milback/rf/envelope_detector.hpp"
#include "milback/util/stats.hpp"

namespace milback::rf {
namespace {

TEST(EnvelopeDetector, RejectsBadConfig) {
  EnvelopeDetectorConfig cfg;
  cfg.responsivity_v_per_w = 0.0;
  EXPECT_THROW(EnvelopeDetector{cfg}, std::invalid_argument);
  cfg = EnvelopeDetectorConfig{};
  cfg.video_bandwidth_hz = -1.0;
  EXPECT_THROW(EnvelopeDetector{cfg}, std::invalid_argument);
}

TEST(EnvelopeDetector, LinearInPowerResponse) {
  EnvelopeDetector det{EnvelopeDetectorConfig{}};
  const double k = det.config().responsivity_v_per_w;
  EXPECT_NEAR(det.output_voltage(1e-6), k * 1e-6, 1e-12);
  EXPECT_NEAR(det.output_voltage(2e-6) / det.output_voltage(1e-6), 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(det.output_voltage(-1.0), 0.0);  // negative power clamped
}

TEST(EnvelopeDetector, OutputClamped) {
  EnvelopeDetector det{EnvelopeDetectorConfig{}};
  EXPECT_DOUBLE_EQ(det.output_voltage(1.0), det.config().max_output_v);
}

TEST(EnvelopeDetector, InverseResponse) {
  EnvelopeDetector det{EnvelopeDetectorConfig{}};
  EXPECT_NEAR(det.input_power_for_voltage(det.output_voltage(5e-7)), 5e-7, 1e-15);
}

TEST(EnvelopeDetector, RiseTimeFollowsVideoBandwidth) {
  EnvelopeDetectorConfig cfg;
  cfg.video_bandwidth_hz = 10e6;
  EnvelopeDetector det{cfg};
  EXPECT_NEAR(det.rise_time_s(), 35e-9, 1e-12);
  EXPECT_NEAR(det.max_symbol_rate_hz(), 1.0 / 70e-9, 1.0);
}

TEST(EnvelopeDetector, DefaultCapsDownlinkNear36Mbps) {
  // 2 bits/symbol * max symbol rate should land near the paper's 36 Mbps.
  EnvelopeDetector det{EnvelopeDetectorConfig{}};
  const double max_rate = 2.0 * det.max_symbol_rate_hz();
  EXPECT_NEAR(max_rate / 1e6, 36.0, 1.0);
}

TEST(EnvelopeDetector, DetectSettlesToStaticValue) {
  EnvelopeDetectorConfig cfg;
  cfg.output_noise_v_per_rthz = 0.0;
  EnvelopeDetector det{cfg};
  Rng rng(1);
  const double fs = 200e6;
  std::vector<double> p(2000, 1e-6);
  const auto v = det.detect(p, fs, rng);
  EXPECT_NEAR(v.back(), det.output_voltage(1e-6), det.output_voltage(1e-6) * 0.01);
  // Starts low (rise-limited).
  EXPECT_LT(v.front(), v.back() * 0.5);
}

TEST(EnvelopeDetector, DetectFollowsOokAtModerateRate) {
  EnvelopeDetectorConfig cfg;
  cfg.output_noise_v_per_rthz = 0.0;
  EnvelopeDetector det{cfg};
  Rng rng(2);
  const double fs = 200e6;
  // 1 Mbps OOK: 200 samples per bit, far below the video bandwidth.
  std::vector<double> p;
  for (int bit : {1, 0, 1, 1, 0}) {
    p.insert(p.end(), 200, bit ? 1e-6 : 0.0);
  }
  const auto v = det.detect(p, fs, rng);
  const double high = det.output_voltage(1e-6);
  EXPECT_NEAR(v[199], high, 0.05 * high);   // end of first '1'
  EXPECT_LT(v[399], 0.1 * high);            // end of '0'
  EXPECT_NEAR(v[799], high, 0.05 * high);   // end of second '1' run
}

TEST(EnvelopeDetector, NoiseScalesWithSqrtBandwidth) {
  EnvelopeDetector det{EnvelopeDetectorConfig{}};
  EXPECT_NEAR(det.noise_power_v2(4e6) / det.noise_power_v2(1e6), 4.0, 1e-9);
}

TEST(EnvelopeDetector, DetectNoiseMatchesSpec) {
  EnvelopeDetectorConfig cfg;
  cfg.video_bandwidth_hz = 1e6;
  cfg.output_noise_v_per_rthz = 100e-9;  // exaggerated for measurability
  EnvelopeDetector det{cfg};
  Rng rng(3);
  const double fs = 50e6;
  // Constant mid-scale input so noise is observable around a settled level.
  std::vector<double> p(100000, 1e-4);
  auto v = det.detect(p, fs, rng);
  v.erase(v.begin(), v.begin() + 5000);  // drop settling
  const double sigma = stddev(v);
  const double expected = std::sqrt(det.noise_power_v2(3.14159 / 2.0 * 1e6));
  EXPECT_NEAR(sigma, expected, expected * 0.1);
}

}  // namespace
}  // namespace milback::rf
