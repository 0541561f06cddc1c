// Strict command-line arguments for the bench and example binaries.
//
// A malformed argument prints a usage line and the reason on stderr and
// exits with status 2. No binary runs on strtoull/strtod's silent failure
// value (0) while its output claims the argument it was given.
#pragma once

#include <cstdint>

namespace milback {

/// Reads argv[1] as a run seed: a non-negative decimal integer, `fallback`
/// when absent.
std::uint64_t parse_seed(int argc, char** argv, std::uint64_t fallback);

/// Reads argv[index] as a finite decimal number greater than `above`,
/// `fallback` when absent. `usage` lists the binary's arguments.
double parse_number(int argc, char** argv, int index, double fallback, double above,
                    const char* usage);

}  // namespace milback
