#include "milback/util/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "milback/core/contract.hpp"

namespace milback {

namespace {

[[noreturn]] void usage_exit(const char* argv0, const char* usage, const std::string& why) {
  std::cerr << "usage: " << argv0 << " " << usage << "\n  " << why << "\n";
  std::exit(2);
}

}  // namespace

std::uint64_t parse_seed(int argc, char** argv, std::uint64_t fallback) {
  MILBACK_REQUIRE(argc >= 1 && argv != nullptr, "parse_seed: argv must hold the program name");
  if (argc <= 1) return fallback;
  const char* arg = argv[1];
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(arg, &end, 10);
  if (arg[0] == '-' || end == arg || *end != '\0' || errno == ERANGE) {
    usage_exit(argv[0], "[seed]",
               "seed must be a non-negative integer, got '" + std::string(arg) + "'");
  }
  return v;
}

double parse_number(int argc, char** argv, int index, double fallback, double above,
                    const char* usage) {
  MILBACK_REQUIRE(argc >= 1 && argv != nullptr && index >= 1 && usage != nullptr,
                  "parse_number: argv must hold the program name and index must be >= 1");
  if (argc <= index) return fallback;
  const char* arg = argv[index];
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(arg, &end);
  if (end == arg || *end != '\0' || errno == ERANGE || !std::isfinite(v) || !(v > above)) {
    std::ostringstream why;
    why << "argument " << index << " must be a finite number";
    if (std::isfinite(above)) why << " above " << above;
    why << ", got '" << arg << "'";
    usage_exit(argv[0], usage, why.str());
  }
  return v;
}

}  // namespace milback
