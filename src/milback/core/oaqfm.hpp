// Orientation-Assisted Quadrature Frequency Modulation (OAQFM) — Section 6.2.
//
// OAQFM encodes 2 bits per symbol in the presence/absence of two tones whose
// frequencies f_A and f_B are chosen from the node's orientation so that the
// FSA's port-A and port-B beams both point at the AP. Unlike QAM's sine and
// cosine, the two basis functions are tones at *different frequencies*, so a
// passive frequency-selective antenna plus two envelope detectors — no mixer
// or oscillator — can separate and demodulate them.
//
// Bit mappings follow the paper exactly (they differ between directions):
//   Downlink (Fig 6): "10" -> tone at f_A only, "01" -> tone at f_B only,
//                     "11" -> both tones, "00" -> neither.
//   Uplink (Sec 6.3): "01" -> reflect f_A / absorb f_B,
//                     "10" -> reflect f_B / absorb f_A,
//                     "11" -> reflect both, "00" -> absorb both.
//
// When the node faces the AP head-on (normal incidence) both beams demand
// the same frequency (f_A == f_B) and the scheme degenerates to single-tone
// on-off keying (OOK), carrying 1 bit per symbol.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace milback::core {

/// A 2-bit OAQFM symbol, named by its bit pattern (MSB first).
enum class OaqfmSymbol : std::uint8_t { k00 = 0, k01 = 1, k10 = 2, k11 = 3 };

/// Which tones the AP transmits for a downlink symbol.
struct ToneState {
  bool tone_a = false;  ///< Tone at f_A present.
  bool tone_b = false;  ///< Tone at f_B present.
};

/// Which FSA ports the node reflects for an uplink symbol.
struct PortState {
  bool reflect_a = false;  ///< Port A shorted (reflects f_A).
  bool reflect_b = false;  ///< Port B shorted (reflects f_B).
};

/// Downlink symbol -> tone enables (paper Fig 6: bit1 <-> f_A, bit0 <-> f_B).
constexpr ToneState downlink_tones(OaqfmSymbol s) noexcept {
  const auto v = static_cast<std::uint8_t>(s);
  return ToneState{.tone_a = (v & 0b10) != 0, .tone_b = (v & 0b01) != 0};
}

/// Downlink detection -> symbol (presence of each tone at its port).
constexpr OaqfmSymbol downlink_decide(bool a_present, bool b_present) noexcept {
  return static_cast<OaqfmSymbol>((a_present ? 0b10 : 0) | (b_present ? 0b01 : 0));
}

/// Uplink symbol -> port reflect states (paper Sec 6.3: "01" reflects f_A,
/// "10" reflects f_B).
constexpr PortState uplink_ports(OaqfmSymbol s) noexcept {
  const auto v = static_cast<std::uint8_t>(s);
  return PortState{.reflect_a = (v & 0b01) != 0, .reflect_b = (v & 0b10) != 0};
}

/// Uplink detection -> symbol (presence of each backscattered tone at the AP).
constexpr OaqfmSymbol uplink_decide(bool a_reflected, bool b_reflected) noexcept {
  return static_cast<OaqfmSymbol>((a_reflected ? 0b01 : 0) | (b_reflected ? 0b10 : 0));
}

/// Bits carried per symbol in each operating mode.
enum class ModulationMode {
  kOaqfm,  ///< Two tones, 2 bits/symbol.
  kOok,    ///< Degenerate normal-incidence fallback, 1 bit/symbol.
};

/// Bits per symbol for a mode.
constexpr unsigned bits_per_symbol(ModulationMode m) noexcept {
  return m == ModulationMode::kOaqfm ? 2u : 1u;
}

/// Known uplink pilot prefix: alternating "11","00",... so every port's
/// switch toggles during the pilot; the AP uses it to resolve carrier-phase
/// polarity and set its slicing threshold.
std::vector<OaqfmSymbol> uplink_pilot(std::size_t n);

/// Packs a bit stream (MSB-first pairs) into OAQFM symbols. An odd trailing
/// bit is padded with 0 into the final symbol's LSB.
std::vector<OaqfmSymbol> symbols_from_bits(const std::vector<bool>& bits);

/// Unpacks symbols back to bits (2 per symbol, MSB first).
std::vector<bool> bits_from_symbols(const std::vector<OaqfmSymbol>& symbols);

/// Human-readable "00".."11".
std::string to_string(OaqfmSymbol s);

}  // namespace milback::core
