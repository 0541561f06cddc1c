// Descriptive statistics used by the evaluation harness: the paper reports
// means, variances, 90th percentiles and CDFs over repeated trials.
#pragma once

#include <initializer_list>
#include <span>
#include <vector>

namespace milback {

/// Arithmetic mean. Returns 0 for an empty span.
double mean(std::span<const double> xs) noexcept;

/// Unbiased sample variance (n-1 denominator). Returns 0 for n < 2.
double variance(std::span<const double> xs) noexcept;

/// Sample standard deviation.
double stddev(std::span<const double> xs) noexcept;

/// Minimum element; 0 for an empty span.
double min_value(std::span<const double> xs) noexcept;

/// Maximum element; 0 for an empty span.
double max_value(std::span<const double> xs) noexcept;

/// Linear-interpolated percentile, p in [0, 100]. Copies and sorts.
/// Returns 0 for an empty span.
double percentile(std::span<const double> xs, double p);

/// Several percentiles of the same sample in one pass: copies and sorts `xs`
/// ONCE, then interpolates every requested p (in [0, 100]). Result aligns
/// with `ps`; each entry equals percentile(xs, ps[i]) exactly. Returns all
/// zeros for an empty sample.
std::vector<double> percentiles(std::span<const double> xs,
                                std::span<const double> ps);

/// Initializer-list convenience: `percentiles(latencies, {50.0, 95.0})`.
std::vector<double> percentiles(std::span<const double> xs,
                                std::initializer_list<double> ps);

/// Median (50th percentile).
double median(std::span<const double> xs);

/// One (x, F(x)) point of an empirical CDF.
struct CdfPoint {
  double value;        ///< Sample value.
  double probability;  ///< Fraction of samples <= value, in (0, 1].
};

/// Builds the full empirical CDF (sorted values with step probabilities).
std::vector<CdfPoint> empirical_cdf(std::span<const double> xs);

}  // namespace milback
