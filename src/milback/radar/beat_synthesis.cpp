#include "milback/radar/beat_synthesis.hpp"

#include <algorithm>
#include <cmath>

#include "milback/core/contract.hpp"
#include "milback/dsp/oscillator.hpp"
#include "milback/util/units.hpp"

namespace milback::radar {

namespace {

/// Samples per accumulation block. Rows are zero-padded to whole blocks, so
/// the accumulation loop has a fixed trip count and runs on the target's
/// vector unit without reassociating anything: every sample still sums its
/// paths in order.
constexpr std::size_t kSumBlock = 64;

std::size_t padded_length(std::size_t n) {
  return (n + kSumBlock - 1) / kSumBlock * kSumBlock;
}

/// First sample of a triangular chirp's down-leg (n for a sawtooth): samples
/// with t > duration/2 run at -f_beat, matching the actual sweep direction.
std::size_t down_leg_start(const ChirpConfig& chirp, double fs, std::size_t n) {
  std::size_t flip = n;
  if (chirp.shape == ChirpShape::kTriangular) {
    while (flip > 0 && double(flip - 1) / fs > chirp.duration_s / 2.0) --flip;
  }
  return flip;
}

/// Writes one path's phasor row into re[0..n), im[0..n).
void phasor_row(const ChirpConfig& chirp, double fs, std::size_t n, std::size_t flip,
                double delay_s, const std::vector<double>& envelope, double* re,
                double* im) {
  const double phi0 = dechirp_phase_rad(chirp, delay_s);
  const double f_beat = chirp.slope_hz_per_s() * delay_s;
  const double step = 2.0 * kPi * f_beat / fs;
  // Each constant-frequency leg is a phasor rotation — one complex
  // multiply per sample instead of a cos/sin pair.
  const auto leg = [&](dsp::PhasorOscillator osc, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const cplx z = osc.next();
      const double e = envelope.empty() ? 1.0 : envelope[i];
      re[i] = e * z.real();
      im[i] = e * z.imag();
    }
  };
  leg(dsp::PhasorOscillator(phi0, step), 0, flip);
  if (flip < n) leg(dsp::PhasorOscillator(phi0 - step * double(flip), -step), flip, n);
}

/// acc += w * row over one block.
inline void accumulate_block(cplx w, const double* re, const double* im, double* acc_re,
                             double* acc_im) {
  const double wr = w.real(), wi = w.imag();
  for (std::size_t i = 0; i < kSumBlock; ++i) {
    acc_re[i] += wr * re[i] - wi * im[i];
    acc_im[i] += wr * im[i] + wi * re[i];
  }
}

}  // namespace

double dechirp_phase_rad(const ChirpConfig& chirp, double tau_s) noexcept {
  const double s = chirp.slope_hz_per_s();
  return 2.0 * kPi * chirp.start_frequency_hz * tau_s - kPi * s * tau_s * tau_s;
}

std::size_t samples_per_chirp(const ChirpConfig& chirp, double fs) noexcept {
  // Round rather than truncate: duration * fs lands at 899.999... for exact
  // 900-sample products, and truncation silently dropped the last sample.
  return std::size_t(std::llround(chirp.duration_s * fs));
}

cplx path_weight(double amplitude, double extra_phase_rad) noexcept {
  return amplitude * std::polar(1.0, extra_phase_rad);
}

BeatBasis::BeatBasis(const ChirpConfig& chirp, double fs, std::size_t n_samples)
    : chirp_(chirp), fs_(fs), n_(n_samples), stride_(padded_length(n_samples)) {
  require_positive(fs, "fs");
  flip_ = down_leg_start(chirp, fs, n_samples);
}

void BeatBasis::reserve(std::size_t paths) {
  re_.reserve(paths * stride_);
  im_.reserve(paths * stride_);
}

void BeatBasis::add_path(double delay_s, const std::vector<double>& envelope) {
  MILBACK_REQUIRE(envelope.empty() || envelope.size() == n_,
                  "BeatBasis::add_path: envelope length mismatch");
  re_.resize(re_.size() + stride_, 0.0);
  im_.resize(im_.size() + stride_, 0.0);
  phasor_row(chirp_, fs_, n_, flip_, delay_s, envelope, re_.data() + paths_ * stride_,
             im_.data() + paths_ * stride_);
  ++paths_;
}

std::vector<cplx> BeatBasis::synthesize(const std::vector<cplx>& weights,
                                        double noise_power_w, milback::Rng& rng) const {
  MILBACK_REQUIRE(weights.size() == paths_, "BeatBasis::synthesize: one weight per path");
  require_non_negative(noise_power_w, "noise_power_w");
  std::vector<cplx> beat(n_);
  // Sample blocks outermost: one block's accumulators stay in L1 while every
  // row streams through once.
  for (std::size_t b = 0; b < n_; b += kSumBlock) {
    double acc_re[kSumBlock] = {}, acc_im[kSumBlock] = {};
    for (std::size_t p = 0; p < paths_; ++p) {
      const std::size_t row = p * stride_ + b;
      accumulate_block(weights[p], re_.data() + row, im_.data() + row, acc_re, acc_im);
    }
    const std::size_t m = std::min(kSumBlock, n_ - b);
    for (std::size_t i = 0; i < m; ++i) beat[b + i] = {acc_re[i], acc_im[i]};
  }
  if (noise_power_w > 0.0) rng.add_complex_gaussian(beat.data(), beat.size(), noise_power_w);
  return beat;
}

std::vector<cplx> synthesize_beat(const std::vector<PathContribution>& paths,
                                  const ChirpConfig& chirp, double fs,
                                  std::size_t n_samples, double noise_power_w,
                                  milback::Rng& rng) {
  require_positive(fs, "fs");
  require_non_negative(noise_power_w, "noise_power_w");
  // The one-output case streams: each row is built into one scratch row and
  // accumulated at once, with the same row and accumulation arithmetic as
  // BeatBasis, so the beat is bit-identical to a basis of these paths.
  const std::size_t flip = down_leg_start(chirp, fs, n_samples);
  const std::size_t stride = padded_length(n_samples);
  std::vector<double> row_re(stride, 0.0), row_im(stride, 0.0);
  std::vector<double> acc_re(stride, 0.0), acc_im(stride, 0.0);
  for (const auto& p : paths) {
    MILBACK_REQUIRE(p.envelope.empty() || p.envelope.size() == n_samples,
                    "synthesize_beat: envelope length mismatch");
    phasor_row(chirp, fs, n_samples, flip, p.delay_s, p.envelope, row_re.data(),
               row_im.data());
    const cplx w = path_weight(p.amplitude, p.extra_phase_rad);
    for (std::size_t b = 0; b < stride; b += kSumBlock) {
      accumulate_block(w, row_re.data() + b, row_im.data() + b, acc_re.data() + b,
                       acc_im.data() + b);
    }
  }
  std::vector<cplx> beat(n_samples);
  for (std::size_t i = 0; i < n_samples; ++i) beat[i] = {acc_re[i], acc_im[i]};
  if (noise_power_w > 0.0) rng.add_complex_gaussian(beat.data(), beat.size(), noise_power_w);
  return beat;
}

}  // namespace milback::radar
