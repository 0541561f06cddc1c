// Shared value types for multi-node service: the network-level link + SDM
// configuration and one node's traffic description.
//
// Plain data with no behavior, kept in core so code above it (the cell
// engine, scenario drivers) can name a cell's configuration and its traffic
// sources.
#pragma once

#include "milback/core/link.hpp"

namespace milback::core {

/// Network-level configuration.
struct NetworkConfig {
  LinkConfig link{};
  double sdm_min_separation_deg = 20.0;  ///< Bearing separation for concurrent
                                         ///< beams (~ horn beamwidth).
};

/// Traffic description for one node.
struct TrafficSpec {
  channel::NodePose pose{};          ///< Where the tag sits.
  double arrival_rate_bps = 50e3;    ///< Mean offered uplink load.
  double burstiness = 1.0;           ///< Arrival jitter: 0 = CBR, 1 = heavy jitter.
};

}  // namespace milback::core
