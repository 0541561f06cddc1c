// SDM scheduling and waveform-level service rounds (Section 7: "MilBack can
// potentially support multiple nodes by using spatial division
// multiplexing").
//
// The AP serves nodes whose bearings are separated by more than its beam
// width concurrently (SDM slots); nodes closer together share a slot by time
// division. This header holds the Section-7 mechanics the cell engine and
// its callers share: greedy bearing-separation slotting, the horn-pattern
// isolation between concurrent beams, the budget-based service-rate probe
// the scheduler uses to decide whether a node is worth a slot, and one full
// waveform-level uplink/downlink round over a static population, in which
// each link's budget is degraded by the other concurrent nodes' signals
// leaking through the horn pattern.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "milback/core/link.hpp"
#include "milback/core/rate_adapt.hpp"

namespace milback::cell {

/// Greedy SDM scheduling: partitions [0, poses.size()) into slots such that
/// all nodes in a slot are pairwise separated by `min_separation_deg`.
std::vector<std::vector<std::size_t>> sdm_partition(
    std::span<const channel::NodePose> poses, double min_separation_deg);

/// Power isolation [dB] between the beams serving two bearings (TX + RX
/// horn pattern attenuation at the bearing offset).
double inter_node_isolation_db(const channel::BackscatterChannel& channel,
                               const channel::NodePose& a,
                               const channel::NodePose& b);

/// Budget-based service rate [bps] for a pose (0 = not worth a slot),
/// evaluated at the shared 10 Mbps reference bandwidth.
double probe_service_rate_bps(const channel::BackscatterChannel& channel,
                              const channel::NodePose& pose,
                              const core::RateAdaptConfig& rate);

/// One node's slice of an uplink service round.
struct NodeRoundResult {
  std::string id;
  core::UplinkRunResult uplink{};
  double effective_snr_db = 0.0;  ///< Budget SNR after inter-node interference.
  double goodput_bps = 0.0;       ///< (1 - BER) * rate / slot-share.
  std::size_t sdm_slot = 0;       ///< Which concurrent slot served this node.
};

/// Outcome of one full uplink service round.
struct RoundResult {
  std::vector<NodeRoundResult> nodes;
  std::size_t sdm_slots = 0;       ///< Number of sequential slots used.
  double aggregate_goodput_bps = 0.0;
};

/// One node's slice of a downlink round.
struct NodeDownlinkResult {
  std::string id;
  core::DownlinkRunResult downlink{};
  double effective_sinr_db = 0.0;  ///< Budget SINR after inter-beam leakage.
  double goodput_bps = 0.0;        ///< (1 - BER) * rate / slot share.
  std::size_t sdm_slot = 0;
};

/// Outcome of one downlink service round.
struct DownlinkRoundResult {
  std::vector<NodeDownlinkResult> nodes;
  std::size_t sdm_slots = 0;
  double aggregate_goodput_bps = 0.0;
};

/// One waveform-level uplink round: every node (`poses[i]`, named `ids[i]`)
/// sends `bits_per_node` random bits; nodes in the same SDM slot transmit
/// concurrently and interfere. Results come in slot-major order.
///
/// The per-node work runs on sim::TrialRunner (worker count from
/// MILBACK_SIM_THREADS): exactly one value is drawn from `rng`, and service
/// k draws from the stateless streams (round_seed, k, 0) for its bits and
/// (round_seed, k, 1) for its noise, so the result is bit-identical at any
/// thread count.
RoundResult run_uplink_round(const core::MilBackLink& link,
                             std::span<const channel::NodePose> poses,
                             std::span<const std::string> ids,
                             double min_separation_deg, std::size_t bits_per_node,
                             milback::Rng& rng);

/// One waveform-level downlink round: the AP pushes `bits_per_node` to every
/// node; concurrent beams within a slot leak into each other through the TX
/// horn pattern, degrading each link's effective SINR. Same RNG contract as
/// run_uplink_round.
DownlinkRoundResult run_downlink_round(const core::MilBackLink& link,
                                       std::span<const channel::NodePose> poses,
                                       std::span<const std::string> ids,
                                       double min_separation_deg,
                                       std::size_t bits_per_node, milback::Rng& rng);

}  // namespace milback::cell
