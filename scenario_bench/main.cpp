// Scenario benchmark driver.
//
//   scenario_bench --workload <loc_stream|aisle_mesh|campus_4cell>
//                  --seed <n> --seconds <s> --trace <0|1>
//                  [--workers <k>] [--digest-only] [--git <sha>]
//
// Prints a run manifest, every metric by name with its unit, the workload's
// output digest (and with --trace 1 the per-layer cost ledger), then one
// JSON result line. Exits 1 when an output check fails or a contract
// violation escapes, 2 on a malformed command line.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "common.hpp"
#include "milback/core/contract.hpp"
#include "milback/obs/registry.hpp"

using namespace scenario_bench;

namespace {

[[noreturn]] void usage(const char* argv0, const std::string& why) {
  std::cerr << "usage: " << argv0
            << " --workload <loc_stream|aisle_mesh|campus_4cell> --seed <n> --seconds <s>"
               " --trace <0|1> [--workers <k>] [--digest-only] [--git <sha>]\n"
            << "  " << why << "\n";
  std::exit(2);
}

// Non-negative decimal integer, like bench::parse_seed.
bool parse_u64(const char* arg, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(arg, &end, 10);
  if (arg[0] == '-' || arg[0] == '+' || end == arg || *end != '\0' || errno == ERANGE) {
    return false;
  }
  out = v;
  return true;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  std::string git = "unknown";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0], "missing value after " + a);
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      const char* v = value();
      if (!parse_u64(v, opt.seed)) {
        usage(argv[0], std::string("seed must be a non-negative integer, got '") + v + "'");
      }
      have_seed = true;
    } else if (a == "--seconds") {
      const char* v = value();
      char* end = nullptr;
      opt.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(opt.seconds > 0.0) || !std::isfinite(opt.seconds)) {
        usage(argv[0], std::string("seconds must be a positive number, got '") + v + "'");
      }
      have_seconds = true;
    } else if (a == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") usage(argv[0], "trace must be 0 or 1, got '" + v + "'");
      opt.trace = v == "1";
      have_trace = true;
    } else if (a == "--workers") {
      std::uint64_t k = 0;
      const char* v = value();
      if (!parse_u64(v, k) || k < 1 || k > 64) {
        usage(argv[0], std::string("workers must be in [1, 64], got '") + v + "'");
      }
      opt.workers = int(k);
    } else if (a == "--digest-only") {
      opt.digest_only = true;
    } else if (a == "--git") {
      git = value();
    } else {
      usage(argv[0], "unknown argument '" + a + "'");
    }
  }
  if (opt.workload != "loc_stream" && opt.workload != "aisle_mesh" &&
      opt.workload != "campus_4cell") {
    usage(argv[0], "unknown workload '" + opt.workload + "'");
  }
  if (!opt.digest_only && !(have_seed && have_seconds && have_trace)) {
    usage(argv[0], "--seed, --seconds and --trace are required");
  }
  // Worker counts are pinned through each workload's own config; nothing
  // may fall back to the environment's MILBACK_SIM_THREADS, and telemetry
  // stays off unless the traced run turns it on.
  ::unsetenv("MILBACK_SIM_THREADS");
  milback::obs::set_enabled(false, false);
  if (opt.workers == 0) opt.workers = default_workers();

  std::cout << "manifest {\"git\": \"" << json_escape(git) << "\", \"build_type\": \""
            << SCENARIO_BENCH_BUILD_TYPE << "\", \"compiler\": \"" << SCENARIO_BENCH_COMPILER
            << "\", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"workers\": " << opt.workers << ", \"workload\": \"" << opt.workload
            << "\", \"seed\": " << opt.seed << ", \"seconds\": " << json_number(opt.seconds)
            << ", \"trace\": " << (opt.trace ? 1 : 0) << "}\n";

  Result r;
  try {
    if (opt.workload == "loc_stream") r = run_loc_stream(opt);
    if (opt.workload == "aisle_mesh") r = run_aisle_mesh(opt);
    if (opt.workload == "campus_4cell") r = run_campus_4cell(opt);
  } catch (const milback::ContractViolation& e) {
    std::cerr << "scenario_bench: contract violation escaped: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "scenario_bench: " << e.what() << "\n";
    return 1;
  }

  for (const auto& note : r.notes) std::cout << "note " << note << "\n";
  std::cout << "digest " << opt.workload << " workers=" << opt.workers << " " << r.digest
            << "\n";
  if (opt.digest_only) return r.correct ? 0 : 1;
  for (const auto& m : r.metrics) {
    std::cout << "metric " << m.name << " = " << json_number(m.value) << " " << m.unit << "\n";
  }
  std::cout << "{\"correct\": " << (r.correct ? "true" : "false")
            << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << json_number(m.value)
              << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return r.correct ? 0 : 1;
}
