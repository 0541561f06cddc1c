// Dechirped beat-signal synthesis tests.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <vector>

#include "milback/core/contract.hpp"
#include "milback/dsp/fft_plan.hpp"
#include "milback/dsp/peak.hpp"
#include "milback/radar/beat_synthesis.hpp"
#include "milback/util/units.hpp"

namespace milback::radar {
namespace {

Rng quiet_rng() { return Rng(123); }

TEST(BeatSynthesis, SamplesPerChirp) {
  EXPECT_EQ(samples_per_chirp(field2_chirp(), 50e6), 900u);
}

TEST(BeatSynthesis, SamplesPerChirpRoundsExactIntegerProduct) {
  // 4.9 us * 50 MHz is exactly 245 samples, but the double product evaluates
  // to 244.99999999999997 -- truncation used to lose the last sample.
  ChirpConfig chirp = field2_chirp();
  chirp.duration_s = 4.9e-6;
  EXPECT_EQ(samples_per_chirp(chirp, 50e6), 245u);
}

TEST(BeatSynthesis, SingleReflectorProducesExpectedBeatTone) {
  const auto chirp = field2_chirp();
  const double fs = 50e6;
  const std::size_t n = samples_per_chirp(chirp, fs);
  const double range = 4.0;
  const double tau = 2.0 * range / kSpeedOfLight;

  PathContribution p;
  p.delay_s = tau;
  p.amplitude = 1.0;
  auto rng = quiet_rng();
  const auto beat = synthesize_beat({p}, chirp, fs, n, 0.0, rng);

  std::vector<dsp::cplx> spec(dsp::next_pow2(beat.size()));
  std::copy(beat.begin(), beat.end(), spec.begin());
  dsp::fft_plan(spec.size()).forward(spec);
  const auto mags = dsp::magnitude_spectrum(spec);
  std::vector<double> positive(mags.begin(), mags.begin() + std::ptrdiff_t(mags.size() / 2));
  const auto peak = dsp::max_peak(positive);
  const double f_est = peak.index * fs / double(mags.size());
  EXPECT_NEAR(f_est, chirp.slope_hz_per_s() * tau, fs / double(mags.size())) << "bin error";
}

TEST(BeatSynthesis, AmplitudePreserved) {
  const auto chirp = field2_chirp();
  const double fs = 50e6;
  const std::size_t n = samples_per_chirp(chirp, fs);
  PathContribution p;
  p.delay_s = 100e-9;
  p.amplitude = 0.37;
  auto rng = quiet_rng();
  const auto beat = synthesize_beat({p}, chirp, fs, n, 0.0, rng);
  for (const auto& v : beat) EXPECT_NEAR(std::abs(v), 0.37, 1e-9);
}

TEST(BeatSynthesis, PathsSuperpose) {
  const auto chirp = field2_chirp();
  const double fs = 50e6;
  const std::size_t n = 512;
  PathContribution p1{.delay_s = 50e-9, .amplitude = 1.0};
  PathContribution p2{.delay_s = 90e-9, .amplitude = 0.5};
  auto rng = quiet_rng();
  const auto both = synthesize_beat({p1, p2}, chirp, fs, n, 0.0, rng);
  auto rng2 = quiet_rng();
  const auto only1 = synthesize_beat({p1}, chirp, fs, n, 0.0, rng2);
  auto rng3 = quiet_rng();
  const auto only2 = synthesize_beat({p2}, chirp, fs, n, 0.0, rng3);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(both[i] - only1[i] - only2[i]), 0.0, 1e-12);
  }
}

TEST(BeatSynthesis, ExtraPhaseRotates) {
  const auto chirp = field2_chirp();
  PathContribution p{.delay_s = 50e-9, .amplitude = 1.0};
  auto rng = quiet_rng();
  const auto ref = synthesize_beat({p}, chirp, 50e6, 64, 0.0, rng);
  p.extra_phase_rad = kPi / 2.0;
  auto rng2 = quiet_rng();
  const auto rot = synthesize_beat({p}, chirp, 50e6, 64, 0.0, rng2);
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_NEAR(std::arg(rot[i] * std::conj(ref[i])), kPi / 2.0, 1e-9);
  }
}

TEST(BeatSynthesis, EnvelopeScalesSamples) {
  const auto chirp = field2_chirp();
  const std::size_t n = 100;
  PathContribution p{.delay_s = 50e-9, .amplitude = 2.0};
  p.envelope.assign(n, 0.0);
  p.envelope[10] = 0.5;
  auto rng = quiet_rng();
  const auto beat = synthesize_beat({p}, chirp, 50e6, n, 0.0, rng);
  EXPECT_NEAR(std::abs(beat[10]), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(beat[11]), 0.0, 1e-12);
}

TEST(BeatSynthesis, EnvelopeLengthMismatchThrows) {
  PathContribution p{.delay_s = 50e-9, .amplitude = 1.0};
  p.envelope.assign(10, 1.0);
  auto rng = quiet_rng();
  EXPECT_THROW(synthesize_beat({p}, field2_chirp(), 50e6, 20, 0.0, rng),
               std::invalid_argument);
}

TEST(BeatSynthesis, NoiseAddsPower) {
  auto rng = quiet_rng();
  const auto noisy = synthesize_beat({}, field2_chirp(), 50e6, 4096, 1e-6, rng);
  double acc = 0.0;
  for (const auto& v : noisy) acc += std::norm(v);
  EXPECT_NEAR(acc / double(noisy.size()), 1e-6, 2e-7);
}

TEST(BeatSynthesis, TriangularDownLegNegatesBeat) {
  const auto chirp = field1_chirp();
  const double fs = 50e6;
  const std::size_t n = samples_per_chirp(chirp, fs);
  PathContribution p{.delay_s = 40e-9, .amplitude = 1.0};
  auto rng = quiet_rng();
  const auto beat = synthesize_beat({p}, chirp, fs, n, 0.0, rng);
  // Instantaneous frequency on the up-leg positive, down-leg negative:
  // compare short-window phase slopes.
  auto slope_at = [&](std::size_t start) {
    double acc = 0.0;
    for (std::size_t i = start; i < start + 32; ++i) {
      acc += std::arg(beat[i + 1] * std::conj(beat[i]));
    }
    return acc / 32.0;
  };
  EXPECT_GT(slope_at(100), 0.0);
  EXPECT_LT(slope_at(n - 200), 0.0);
}

// Per-path reference: each sample straight from cos/sin of the phase the
// basis rows encode, summed path by path.
std::vector<cplx> per_path_reference(const std::vector<PathContribution>& paths,
                                     const ChirpConfig& chirp, double fs, std::size_t n) {
  std::size_t flip = n;
  if (chirp.shape == ChirpShape::kTriangular) {
    while (flip > 0 && double(flip - 1) / fs > chirp.duration_s / 2.0) --flip;
  }
  std::vector<cplx> out(n, cplx{0.0, 0.0});
  for (const auto& p : paths) {
    const double step = 2.0 * kPi * chirp.slope_hz_per_s() * p.delay_s / fs;
    const double phi0 = dechirp_phase_rad(chirp, p.delay_s) + p.extra_phase_rad;
    for (std::size_t i = 0; i < n; ++i) {
      // Up-leg: phi0 + i*step; down-leg restarts from phi0 - flip*step and
      // runs at -step.
      const double phase = i < flip ? phi0 + double(i) * step : phi0 - double(i) * step;
      const double a = p.amplitude * (p.envelope.empty() ? 1.0 : p.envelope[i]);
      out[i] += cplx(a * std::cos(phase), a * std::sin(phase));
    }
  }
  return out;
}

TEST(BeatSynthesis, BurstBasisMatchesPerPathReference) {
  const double fs = 50e6;
  for (const auto& chirp : {field2_chirp(), field1_chirp()}) {
    const std::size_t n = samples_per_chirp(chirp, fs);
    for (const bool with_envelopes : {false, true}) {
      Rng draw(17);
      std::vector<PathContribution> geometry;
      for (int p = 0; p < 13; ++p) {
        PathContribution g;
        g.delay_s = draw.uniform(5e-9, 60e-9);
        if (with_envelopes && p % 3 == 0) {
          g.envelope.resize(n);
          for (std::size_t i = 0; i < n; ++i) {
            g.envelope[i] = std::exp(-std::pow((double(i) - 0.4 * double(n)) / 150.0, 2));
          }
        }
        geometry.push_back(std::move(g));
      }
      BeatBasis basis(chirp, fs, n);
      for (const auto& g : geometry) basis.add_path(g.delay_s, g.envelope);
      ASSERT_EQ(basis.paths(), geometry.size());
      ASSERT_EQ(basis.samples(), n);

      // Ten outputs (five chirps x two antennas), each with fresh weights.
      for (int out = 0; out < 10; ++out) {
        auto paths = geometry;
        std::vector<cplx> weights;
        for (auto& p : paths) {
          p.amplitude = draw.uniform(1e-6, 1e-3);
          p.extra_phase_rad = draw.phase();
          weights.push_back(path_weight(p.amplitude, p.extra_phase_rad));
        }
        auto rng = quiet_rng();
        const auto beat = basis.synthesize(weights, 0.0, rng);
        const auto ref = per_path_reference(paths, chirp, fs, n);
        ASSERT_EQ(beat.size(), n);
        double peak = 0.0;
        for (const auto& v : ref) peak = std::max(peak, std::abs(v));
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_LE(std::abs(beat[i] - ref[i]), 1e-12 * peak)
              << "sample " << i << " output " << out << " envelopes " << with_envelopes;
        }
        // The one-output entry point is the same kernel, bit for bit.
        auto rng2 = quiet_rng();
        const auto single = synthesize_beat(paths, chirp, fs, n, 0.0, rng2);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(single[i].real(), beat[i].real()) << "sample " << i;
          ASSERT_EQ(single[i].imag(), beat[i].imag()) << "sample " << i;
        }
      }
    }
  }
}

TEST(BeatSynthesis, BasisAddsNoiseLastFromTheCallersRng) {
  const auto chirp = field2_chirp();
  const std::size_t n = samples_per_chirp(chirp, 50e6);
  BeatBasis basis(chirp, 50e6, n);
  basis.add_path(40e-9);
  const std::vector<cplx> w = {path_weight(1e-3, 0.7)};
  Rng a(5), b(5), c(5);
  const auto clean = basis.synthesize(w, 0.0, a);
  const auto noisy = basis.synthesize(w, 1e-9, b);
  std::vector<cplx> expect = clean;
  c.add_complex_gaussian(expect.data(), expect.size(), 1e-9);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(noisy[i].real(), expect[i].real());
    EXPECT_EQ(noisy[i].imag(), expect[i].imag());
  }
  EXPECT_EQ(b.engine(), c.engine());
}

TEST(BeatSynthesis, BasisRejectsMismatchedInputs) {
  BeatBasis basis(field2_chirp(), 50e6, 64);
  EXPECT_THROW(basis.add_path(50e-9, std::vector<double>(63, 1.0)), ContractViolation);
  basis.add_path(50e-9);
  auto rng = quiet_rng();
  EXPECT_THROW((void)basis.synthesize({}, 0.0, rng), ContractViolation);
  EXPECT_THROW((void)basis.synthesize({cplx{1.0, 0.0}}, -1.0, rng), ContractViolation);
  EXPECT_THROW(BeatBasis(field2_chirp(), 0.0, 64), ContractViolation);
}

TEST(BeatSynthesis, DechirpPhaseFormula) {
  const auto chirp = field2_chirp();
  const double tau = 30e-9;
  const double expected = 2.0 * kPi * chirp.start_frequency_hz * tau -
                          kPi * chirp.slope_hz_per_s() * tau * tau;
  EXPECT_NEAR(dechirp_phase_rad(chirp, tau), expected, 1e-6);
}

}  // namespace
}  // namespace milback::radar
