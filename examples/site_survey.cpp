// Site survey — AP placement planning for a MilBack deployment.
//
// Walks a virtual node over a 2-D grid of the room and, at every cell,
// evaluates what the AP could deliver there: localization detectability,
// downlink SINR, uplink SNR at both rates, and the adaptive session's chosen
// operating point. Prints ASCII coverage maps — the tool an installer would
// run before mounting the AP.
//
// Build & run:  ./build/examples/site_survey [seed]
#include <cmath>
#include <iostream>

#include "milback/channel/link_budget.hpp"
#include "milback/core/ber.hpp"
#include "milback/util/cli.hpp"
#include "milback/util/rng.hpp"
#include "milback/util/table.hpp"
#include "milback/util/units.hpp"

using namespace milback;

namespace {

// Coverage classes for the map glyphs.
char classify_uplink(double snr10_db, double snr40_db) {
  if (snr40_db >= 16.0) return '#';  // 40 Mbps clean
  if (snr10_db >= 12.0) return '+';  // 10 Mbps clean
  if (snr10_db >= 8.0) return '.';   // 10 Mbps with FEC
  return ' ';                        // out of service
}

char classify_downlink(double sinr_db) {
  if (sinr_db >= 18.0) return '#';
  if (sinr_db >= 14.0) return '+';
  if (sinr_db >= 10.0) return '.';
  return ' ';
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t seed = parse_seed(argc, argv, 5);
  auto env_rng = Rng::stream(seed, 1);
  const auto chan = channel::BackscatterChannel::make_default(
      channel::Environment::indoor_office(env_rng));
  rf::EnvelopeDetector det{rf::EnvelopeDetectorConfig{}};
  rf::RfSwitch sw{rf::RfSwitchConfig{}};

  std::cout << "MilBack site survey: AP at the origin (bottom center), facing up.\n"
            << "Grid: 0.5 m cells, 12 m deep x 12 m wide. Node orientation 15 deg.\n"
            << "Legend: '#' = premium (40 Mbps UL / high-SINR DL), '+' = standard,\n"
            << "        '.' = degraded (FEC / low margin), ' ' = out of service.\n\n";

  const double cell_m = 0.5;
  const int rows = 24;  // depth 12 m
  const int cols = 25;  // width +-6 m

  std::vector<std::string> uplink_map, downlink_map;
  int premium = 0, standard = 0, degraded = 0, dead = 0;

  for (int r = rows; r >= 1; --r) {
    std::string ul_row, dl_row;
    for (int c = 0; c < cols; ++c) {
      const double x = double(r) * cell_m;                      // depth
      const double y = (double(c) - double(cols / 2)) * cell_m; // lateral
      const double d = std::hypot(x, y);
      const double az = rad2deg(std::atan2(y, x));
      // Outside the FSA scan sector (or too close), no service.
      const auto pair = chan.fsa().carrier_pair_for_angle(15.0);
      if (!pair || std::abs(az) > 32.0 || d < 0.5) {
        ul_row += ' ';
        dl_row += ' ';
        ++dead;
        continue;
      }
      const channel::NodePose pose{d, az, 15.0};
      const auto ul10 = channel::compute_uplink_budget(chan, pose, antenna::FsaPort::kA,
                                                       pair->first, sw, 10e6);
      const auto ul40 = channel::compute_uplink_budget(chan, pose, antenna::FsaPort::kA,
                                                       pair->first, sw, 40e6);
      const auto dl = channel::compute_downlink_budget(chan, pose, antenna::FsaPort::kA,
                                                       pair->first, pair->second, det, sw,
                                                       1e9);
      const char u = classify_uplink(ul10.snr_db, ul40.snr_db);
      const char dchar = classify_downlink(dl.sinr_db);
      ul_row += u;
      dl_row += dchar;
      switch (u) {
        case '#': ++premium; break;
        case '+': ++standard; break;
        case '.': ++degraded; break;
        default: ++dead; break;
      }
    }
    uplink_map.push_back(ul_row);
    downlink_map.push_back(dl_row);
  }

  std::cout << "Uplink coverage:            Downlink coverage:\n";
  for (std::size_t i = 0; i < uplink_map.size(); ++i) {
    std::cout << "|" << uplink_map[i] << "|  |" << downlink_map[i] << "|\n";
  }
  std::cout << std::string(27, ' ') << "^ AP\n\n";

  const int total = premium + standard + degraded + dead;
  Table t({"service class", "cells", "share"});
  t.add_row({"premium (40 Mbps)", std::to_string(premium),
             Table::num(100.0 * premium / total, 1) + "%"});
  t.add_row({"standard (10 Mbps)", std::to_string(standard),
             Table::num(100.0 * standard / total, 1) + "%"});
  t.add_row({"degraded (FEC)", std::to_string(degraded),
             Table::num(100.0 * degraded / total, 1) + "%"});
  t.add_row({"out of service", std::to_string(dead),
             Table::num(100.0 * dead / total, 1) + "%"});
  t.print(std::cout);

  std::cout << "\nDownlink reaches further than uplink (one-way vs two-way path\n"
               "loss); the service edge is the uplink's. Rotate or add APs until\n"
               "the degraded ring covers no planned tag location.\n";
  return 0;
}
