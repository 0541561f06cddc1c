#include "milback/util/rng.hpp"

#include <algorithm>
#include <cmath>

#include "milback/util/units.hpp"

namespace milback {

namespace {

/// Uniform in [-1, 1) from one engine draw (53 significand bits).
inline double uniform_pm1(std::mt19937_64& engine) {
  return 0x1.0p-52 * double(engine() >> 11) - 1.0;
}

/// An accepted Marsaglia polar point: (x, y) uniform in the unit disc minus
/// the origin, s = x^2 + y^2.
inline void polar_point(std::mt19937_64& engine, double& x, double& y, double& s) {
  do {
    x = uniform_pm1(engine);
    y = uniform_pm1(engine);
    s = x * x + y * y;
  } while (s >= 1.0 || s == 0.0);
}

/// The polar method's scale: turns the point into a pair of independent
/// Gaussians so the complex sample has E[|z|^2] = 2 sigma^2.
inline double polar_scale(double s, double sigma) {
  return sigma * std::sqrt(-2.0 * std::log(s) / s);
}

/// One Marsaglia polar draw: a pair of independent unit Gaussians, scaled so
/// the complex sample has E[|z|^2] = 2 sigma^2.
inline std::complex<double> polar_pair(std::mt19937_64& engine, double sigma) {
  double x, y, s;
  polar_point(engine, x, y, s);
  const double k = polar_scale(s, sigma);
  return {x * k, y * k};
}

/// Samples per block of the bulk draws.
constexpr std::size_t kPolarBlock = 256;

/// Draws n complex Gaussians and hands sample i to emit(i, re, im). Each
/// block first draws its accepted points (the engine-bound rejection loop),
/// then computes the log/sqrt scales in a second loop the CPU can overlap:
/// the engine is consumed exactly as n single draws consume it, and every
/// sample is the same expression of the same point.
template <typename Emit>
void polar_block_draws(std::mt19937_64& engine, std::size_t n, double sigma, Emit emit) {
  double xs[kPolarBlock], ys[kPolarBlock], ks[kPolarBlock];
  for (std::size_t b = 0; b < n; b += kPolarBlock) {
    const std::size_t m = std::min(kPolarBlock, n - b);
    for (std::size_t i = 0; i < m; ++i) polar_point(engine, xs[i], ys[i], ks[i]);
    for (std::size_t i = 0; i < m; ++i) ks[i] = polar_scale(ks[i], sigma);
    for (std::size_t i = 0; i < m; ++i) emit(b + i, xs[i] * ks[i], ys[i] * ks[i]);
  }
}

}  // namespace

double Rng::phase() { return uniform(-kPi, kPi); }

std::complex<double> Rng::complex_gaussian(double variance) {
  return polar_pair(engine_, std::sqrt(variance / 2.0));
}

void Rng::fill_complex_gaussian(std::complex<double>* out, std::size_t n,
                                double variance) {
  polar_block_draws(engine_, n, std::sqrt(variance / 2.0),
                    [out](std::size_t i, double re, double im) { out[i] = {re, im}; });
}

void Rng::add_complex_gaussian(std::complex<double>* x, std::size_t n,
                               double variance) {
  polar_block_draws(engine_, n, std::sqrt(variance / 2.0),
                    [x](std::size_t i, double re, double im) {
                      x[i] += std::complex<double>(re, im);
                    });
}

std::uint64_t Rng::mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace milback
