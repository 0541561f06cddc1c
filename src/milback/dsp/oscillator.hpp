// Phasor-rotation oscillator: generates e^{i(phi0 + n*step)} with one
// complex multiply per sample instead of a cos/sin pair.
//
// Per-sample trigonometry dominated the beat-synthesis and tone-generation
// loops (~8-40 ns per sincos vs ~2 ns for a complex multiply); every
// constant-frequency phasor stream in the tree now runs on this recurrence.
// Accuracy policy: the rotation step is renormalized once at construction
// and the state phasor every `kRenormInterval` samples, bounding the
// magnitude drift at ~interval * eps and the phase error at ~sqrt(n) * eps —
// within 1e-12 of the trig reference over the longest chirp in the protocol
// (tests/dsp/test_oscillator.cpp pins <= 1e-9). The rotation is the complex
// product written out (ac - bd, ad + bc): the same operations as
// std::complex's operator*, so the same bits for every finite phasor, minus
// the NaN-recovery call GCC keeps in that operator without -ffast-math.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>

namespace milback::dsp {

/// Constant-frequency complex oscillator. Emits e^{i*phase}, advancing the
/// phase by a fixed step per sample via complex rotation.
class PhasorOscillator {
 public:
  /// Renormalize the state phasor every this many samples.
  static constexpr std::size_t kRenormInterval = 256;

  /// Starts at `phase0_rad`, advancing `step_rad` per sample.
  PhasorOscillator(double phase0_rad, double step_rad) noexcept
      : z_(std::cos(phase0_rad), std::sin(phase0_rad)),
        w_(std::cos(step_rad), std::sin(step_rad)) {
    // One exact-magnitude correction of the step keeps |w| = 1 to the last
    // bit, so magnitude drift grows with sqrt(n) rounding rather than
    // linearly with n * (|w| - 1).
    w_ /= std::abs(w_);
  }

  /// Current sample e^{i(phi0 + n*step)}; advances the oscillator.
  std::complex<double> next() noexcept {
    const std::complex<double> out = z_;
    // z_ *= w_, written out (see the accuracy policy above).
    z_ = {z_.real() * w_.real() - z_.imag() * w_.imag(),
          z_.real() * w_.imag() + z_.imag() * w_.real()};
    if (++since_renorm_ == kRenormInterval) {
      z_ /= std::abs(z_);
      since_renorm_ = 0;
    }
    return out;
  }

  /// Current sample without advancing.
  std::complex<double> peek() const noexcept { return z_; }

 private:
  std::complex<double> z_;
  std::complex<double> w_;
  std::size_t since_renorm_ = 0;
};

}  // namespace milback::dsp
