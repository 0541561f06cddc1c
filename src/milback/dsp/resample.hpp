// Smoothing of sampled envelopes (the orientation-at-AP profiler's
// reflection-power trace).
#pragma once

#include <cstddef>
#include <vector>

namespace milback::dsp {

/// Centered moving average of width `window` (window == 0 throws; width is
/// clamped at the edges).
std::vector<double> moving_average(const std::vector<double>& x, std::size_t window);

}  // namespace milback::dsp
