// Dechirped (beat) signal synthesis.
//
// Rather than generating 28 GHz waveforms, the simulation produces the AP
// mixer output directly: a reflector with round-trip delay tau under a
// linear sweep of slope S yields, after mixing with the transmitted chirp,
// a complex exponential at beat frequency S*tau with starting phase
// 2*pi*f0*tau - pi*S*tau^2 (the exact stationary-phase dechirp result).
// This is standard FMCW simulation practice and is what the paper's scope
// captures after the mixer + BPF.
//
// A path's delay, beat step and FSA envelope are fixed for a whole burst;
// only its amplitude and extra (AoA / drift) phase change between chirps and
// RX antennas, and together those are one complex weight. `BeatBasis` builds
// each path's phasor row once and forms any number of beats as weighted sums
// of the rows, so a five-chirp, two-antenna burst runs each path's phasor
// recurrence once instead of ten times.
#pragma once

#include <complex>
#include <cstddef>
#include <vector>

#include "milback/radar/chirp.hpp"
#include "milback/util/rng.hpp"

namespace milback::radar {

using cplx = std::complex<double>;

/// One reflector's contribution to a chirp's beat signal.
struct PathContribution {
  double delay_s = 0.0;          ///< Round-trip delay.
  double amplitude = 0.0;        ///< RMS amplitude (sqrt of received power [W]).
  double extra_phase_rad = 0.0;  ///< AoA / calibration phase on top of dechirp phase.
  /// Optional per-sample amplitude envelope (e.g. the FSA gain sweeping
  /// through its beam as the chirp crosses the aligned frequency). Empty
  /// means constant amplitude. Must match the sample count if non-empty.
  std::vector<double> envelope;
};

/// The complex weight `amplitude * e^{j extra_phase_rad}` a path's phasor
/// row enters a beat with.
cplx path_weight(double amplitude, double extra_phase_rad) noexcept;

/// Per-path phasor rows over one chirp:
///   row_p[i] = env_p[i] * e^{j(dechirp_phase(tau_p) + i * step_p)}
/// with step_p = 2*pi*S*tau_p/fs on the up-leg and -step_p on the down-leg
/// of a triangular chirp. A beat is `sum_p w_p * row_p + AWGN`; for each
/// sample the paths are summed in the order they were added and the noise
/// is added last.
class BeatBasis {
 public:
  /// An empty basis for `n_samples` samples of `chirp` at sample rate `fs`.
  BeatBasis(const ChirpConfig& chirp, double fs, std::size_t n_samples);

  /// Reserves room for `paths` rows, so adding them allocates once.
  void reserve(std::size_t paths);

  /// Appends the row of a path with round-trip delay `delay_s`. `envelope`
  /// is empty (constant amplitude) or `samples()` long; throws
  /// ContractViolation otherwise.
  void add_path(double delay_s, const std::vector<double>& envelope = {});

  /// Number of rows added.
  std::size_t paths() const noexcept { return paths_; }

  /// Samples per beat.
  std::size_t samples() const noexcept { return n_; }

  /// One beat of `samples()` samples: sum_p weights[p] * row_p plus complex
  /// AWGN of total power `noise_power_w` (0 disables) drawn from `rng`.
  /// `weights.size()` must equal `paths()`.
  std::vector<cplx> synthesize(const std::vector<cplx>& weights, double noise_power_w,
                               milback::Rng& rng) const;

 private:
  ChirpConfig chirp_;
  double fs_;
  std::size_t n_;        ///< Samples per beat.
  std::size_t stride_;   ///< Row length: n_ rounded up to whole sum blocks.
  std::size_t flip_ = 0;  ///< First down-leg sample (n_ for a sawtooth).
  std::size_t paths_ = 0;
  std::vector<double> re_, im_;  ///< Rows, path-major, zero-padded to stride_.
};

/// Synthesizes the complex beat signal of one chirp at sample rate `fs` with
/// `n_samples` samples: the one-output case of `BeatBasis`, with each path
/// weighted by `path_weight(amplitude, extra_phase_rad)`. `noise_power_w`
/// adds complex AWGN (0 disables). Throws std::invalid_argument if an
/// envelope length mismatches n_samples.
std::vector<cplx> synthesize_beat(const std::vector<PathContribution>& paths,
                                  const ChirpConfig& chirp, double fs,
                                  std::size_t n_samples, double noise_power_w,
                                  milback::Rng& rng);

/// Phase of the dechirp exponential at t = 0 for delay tau under `chirp`.
double dechirp_phase_rad(const ChirpConfig& chirp, double tau_s) noexcept;

/// Number of beat samples for a full chirp at sample rate `fs`.
std::size_t samples_per_chirp(const ChirpConfig& chirp, double fs) noexcept;

}  // namespace milback::radar
