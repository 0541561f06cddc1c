#include "milback/radar/background_subtraction.hpp"

#include <cmath>

#include "milback/core/contract.hpp"

namespace milback::radar {

namespace {

// The one subtraction loop for both overloads: `spectrum(p)` yields chirp
// p's bins in place, so neither overload copies a spectrum. The first pair's
// difference is written straight into the result; later pairs only feed the
// magnitude average.
template <typename Spectrum>
SubtractionResult subtract_pairs(std::size_t chirps, Spectrum spectrum) {
  MILBACK_REQUIRE(chirps >= 2, "background_subtract: need >= 2 chirp spectra");
  const std::size_t n = spectrum(0).size();
  for (std::size_t p = 0; p < chirps; ++p) {
    MILBACK_REQUIRE(spectrum(p).size() == n, "background_subtract: spectra size mismatch");
  }

  SubtractionResult out;
  out.detection_magnitude.assign(n, 0.0);
  out.first_difference.resize(n);
  out.pairs = chirps - 1;
  for (std::size_t p = 0; p + 1 < chirps; ++p) {
    const std::complex<double>* a = spectrum(p).data();
    const std::complex<double>* b = spectrum(p + 1).data();
    if (p == 0) {
      for (std::size_t k = 0; k < n; ++k) {
        out.first_difference[k] = b[k] - a[k];
        out.detection_magnitude[k] += std::abs(out.first_difference[k]);
      }
    } else {
      for (std::size_t k = 0; k < n; ++k) {
        out.detection_magnitude[k] += std::abs(b[k] - a[k]);
      }
    }
  }
  const double inv = 1.0 / double(out.pairs);
  for (auto& v : out.detection_magnitude) v *= inv;
  return out;
}

}  // namespace

SubtractionResult background_subtract(
    const std::vector<std::vector<std::complex<double>>>& chirp_spectra) {
  return subtract_pairs(chirp_spectra.size(),
                        [&](std::size_t p) -> const auto& { return chirp_spectra[p]; });
}

SubtractionResult background_subtract(const std::vector<RangeSpectrum>& spectra) {
  return subtract_pairs(spectra.size(),
                        [&](std::size_t p) -> const auto& { return spectra[p].bins; });
}

}  // namespace milback::radar
