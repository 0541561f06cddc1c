// Shared helpers for the reproduction benches.
//
// Every bench binary regenerates one table or figure of the MilBack paper:
// it prints the simulated series next to the paper's reported values so the
// shape comparison is immediate. All benches accept an optional seed as
// argv[1] (default 42) and honor MILBACK_CSV_DIR for raw series dumps.
#pragma once

#include <cstdint>
#include <iostream>
#include <string>

#include "milback/channel/backscatter_channel.hpp"
#include "milback/channel/environment.hpp"
#include "milback/sim/accumulator.hpp"
#include "milback/sim/sweep.hpp"
#include "milback/sim/trial_runner.hpp"
#include "milback/util/cli.hpp"
#include "milback/util/csv.hpp"
#include "milback/util/rng.hpp"
#include "milback/util/stats.hpp"
#include "milback/util/table.hpp"

namespace milback::bench {

/// Parses the bench seed from argv (default 42); a malformed argument exits 2
/// with a usage message (milback::parse_seed).
inline std::uint64_t parse_seed(int argc, char** argv) {
  return milback::parse_seed(argc, argv, 42);
}

/// Prints the standard bench banner.
inline void banner(const std::string& id, const std::string& title, std::uint64_t seed) {
  std::cout << "==================================================================\n"
            << " MilBack reproduction | " << id << "\n"
            << " " << title << "\n"
            << " seed = " << seed << "  (pass a different seed as argv[1])\n"
            << "==================================================================\n";
}

/// Keys of a bench's one-off streams, `Rng::stream(seed, tag)`. Per-point
/// and per-trial streams key on small indices (`stream(seed, p, trial)`),
/// so the tags are ASCII words no sweep index reaches.
inline constexpr std::uint64_t kEnvironmentStream = 0x656e76;  // "env": room clutter
inline constexpr std::uint64_t kDetectorStream = 0x646574;     // "det": detector noise

/// The standard experiment channel: paper-default hardware over a cluttered
/// indoor office (tables, chairs, shelves — Section 9 setup).
inline channel::BackscatterChannel make_indoor_channel(Rng& rng) {
  return channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(rng));
}

/// Ground-truth measurement uncertainty of the paper's methodology:
/// orientation ground truth came from a protractor (~1 degree reading
/// accuracy). Orientation benches add this jitter so reported errors follow
/// the same measurement chain as the paper's.
inline constexpr double kProtractorSigmaDeg = 1.0;

}  // namespace milback::bench
