// Bit-error-rate mathematics for OAQFM's per-tone on-off keying.
//
// Each OAQFM bit is an independent OOK decision (one tone, one detector),
// so symbol BER is the average of the two tones' OOK error rates. The
// envelope-detection (noncoherent) approximation 0.5*exp(-snr/2) — snr being
// the peak ("on") SNR — is the standard result and matches the paper's
// reported (SNR, BER) operating points: 2e-4 near 12 dB, 2e-8 near 15 dB,
// 1e-10 near 17 dB.
#pragma once

#include <cstddef>

namespace milback::core {

/// Gaussian tail probability Q(x) = P(N(0,1) > x).
double q_function(double x) noexcept;

/// Noncoherent (envelope-detected) OOK BER at peak SNR `snr_linear`.
double ber_ook_noncoherent(double snr_linear) noexcept;

/// OAQFM bit error rate given the two tones' peak SNRs (linear).
double ber_oaqfm(double snr_a_linear, double snr_b_linear) noexcept;

/// Empirical BER from error counts with a floor of 0 for exact agreement.
double empirical_ber(std::size_t bit_errors, std::size_t total_bits) noexcept;

}  // namespace milback::core
