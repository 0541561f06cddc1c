#include "milback/cell/sdm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "milback/channel/link_budget.hpp"
#include "milback/core/ber.hpp"
#include "milback/core/contract.hpp"
#include "milback/sim/trial_runner.hpp"
#include "milback/util/units.hpp"

namespace milback::cell {

std::vector<std::vector<std::size_t>> sdm_partition(
    std::span<const channel::NodePose> poses, double min_separation_deg) {
  require_non_negative(min_separation_deg, "min_separation_deg");
  std::vector<std::vector<std::size_t>> slots;
  for (std::size_t i = 0; i < poses.size(); ++i) {
    bool placed = false;
    for (auto& slot : slots) {
      const bool compatible = std::all_of(slot.begin(), slot.end(), [&](std::size_t j) {
        return std::abs(poses[i].azimuth_deg - poses[j].azimuth_deg) >=
               min_separation_deg;
      });
      if (compatible) {
        slot.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) slots.push_back({i});
  }
  return slots;
}

double inter_node_isolation_db(const channel::BackscatterChannel& channel,
                               const channel::NodePose& a,
                               const channel::NodePose& b) {
  require_finite(a.azimuth_deg, "a.azimuth_deg");
  require_finite(b.azimuth_deg, "b.azimuth_deg");
  const double offset = std::abs(a.azimuth_deg - b.azimuth_deg);
  const auto& tx = channel.ap_tx_antenna();
  const auto& rx = channel.ap_rx_antenna();
  // The beam serving node a both illuminates node b and receives from it
  // attenuated by the pattern at the bearing offset (two pattern passes).
  const double tx_rejection = tx.config().boresight_gain_dbi - tx.gain_dbi(offset);
  const double rx_rejection = rx.config().boresight_gain_dbi - rx.gain_dbi(offset);
  return tx_rejection + rx_rejection;
}

double probe_service_rate_bps(const channel::BackscatterChannel& channel,
                              const channel::NodePose& pose,
                              const core::RateAdaptConfig& rate) {
  require_positive(pose.distance_m, "pose.distance_m");
  require_finite(pose.azimuth_deg, "pose.azimuth_deg");
  require_finite(pose.orientation_deg, "pose.orientation_deg");
  const auto pair = channel.fsa().carrier_pair_for_angle(pose.orientation_deg);
  if (!pair) return 0.0;
  rf::RfSwitch sw{rf::RfSwitchConfig{}};
  const auto budget = channel::compute_uplink_budget(channel, pose,
                                                     antenna::FsaPort::kA, pair->first,
                                                     sw, 10e6);
  return core::service_rate_bps(rate, budget.snr_db);
}

namespace {

/// One (slot, node) service of a round, in slot-major order.
struct SdmService {
  std::size_t slot = 0;
  std::size_t node = 0;
};

/// Flattens an sdm_partition into slot-major (slot, node) pairs — the trial
/// index space of a round.
std::vector<SdmService> flatten_services(
    const std::vector<std::vector<std::size_t>>& slots) {
  std::vector<SdmService> services;
  for (std::size_t s = 0; s < slots.size(); ++s) {
    for (const std::size_t i : slots[s]) services.push_back(SdmService{s, i});
  }
  return services;
}

/// Serves node `sv.node` in slot `sv.slot` of an uplink round: runs the real
/// uplink exchange and degrades the budget SNR by the other concurrent
/// transmitters in the slot.
NodeRoundResult serve_uplink_node(const core::MilBackLink& link,
                                  std::span<const channel::NodePose> poses,
                                  std::span<const std::string> ids,
                                  const SdmService& sv,
                                  std::span<const std::size_t> slot_members,
                                  std::size_t bits_per_node, milback::Rng& data_rng,
                                  milback::Rng& noise_rng) {
  MILBACK_REQUIRE(sv.node < poses.size() && poses.size() == ids.size(),
                  "serve_uplink_node: node index out of range");
  const std::size_t i = sv.node;
  NodeRoundResult nr;
  nr.id = ids[i];
  nr.sdm_slot = sv.slot;

  const auto bits = data_rng.bits(bits_per_node);
  nr.uplink = link.run_uplink(poses[i], bits, noise_rng);

  // Degrade the budget SNR by concurrent transmitters in this slot.
  double interference_w = 0.0;
  rf::RfSwitch sw(link.node().config().rf_switch);
  const double mod = channel::modulation_power_coeff(sw);
  for (const std::size_t j : slot_members) {
    if (j == i) continue;
    const double p_j = dbm2watt(link.channel().backscatter_power_dbm(
        antenna::FsaPort::kA,
        link.channel().fsa().config().center_frequency_hz, poses[j], mod));
    // milback-analyze: no-reduction(interferer sum in fixed node-index order within one service call)
    interference_w +=
        p_j * db2lin(-inter_node_isolation_db(link.channel(), poses[i], poses[j]));
  }
  const double signal_w = dbm2watt(
      nr.uplink.carriers_ok
          ? link.channel().backscatter_power_dbm(
                antenna::FsaPort::kA, nr.uplink.carriers.f_a_hz, poses[i], mod)
          : -300.0);
  const double noise_w = link.channel().effective_uplink_noise_w(
      signal_w, link.config().uplink_bit_rate_bps);
  nr.effective_snr_db = lin2db(std::max(signal_w, 1e-300) /
                               (noise_w + interference_w));

  const double ber = core::ber_ook_noncoherent(db2lin(nr.effective_snr_db));
  nr.goodput_bps = (1.0 - ber) * link.config().uplink_bit_rate_bps;
  return nr;
}

/// Serves node `sv.node` in slot `sv.slot` of a downlink round: concurrent
/// beams leak into each other through the TX horn pattern.
NodeDownlinkResult serve_downlink_node(
    const core::MilBackLink& link, std::span<const channel::NodePose> poses,
    std::span<const std::string> ids, const SdmService& sv,
    std::span<const std::size_t> slot_members, std::size_t bits_per_node,
    milback::Rng& data_rng, milback::Rng& noise_rng) {
  MILBACK_REQUIRE(sv.node < poses.size() && poses.size() == ids.size(),
                  "serve_downlink_node: node index out of range");
  const std::size_t i = sv.node;
  NodeDownlinkResult nr;
  nr.id = ids[i];
  nr.sdm_slot = sv.slot;

  const auto bits = data_rng.bits(bits_per_node);
  nr.downlink = link.run_downlink(poses[i], bits, noise_rng);

  // Inter-beam leakage: the beam serving node j also illuminates node i,
  // attenuated by the TX horn pattern at their bearing offset. Node i's
  // detector integrates that extra power as interference on top of its
  // own cross-port (sidelobe) term and detector noise.
  if (nr.downlink.carriers_ok) {
    const rf::EnvelopeDetector det{link.node().config().detector};
    const double p_sig_w = dbm2watt(link.channel().incident_port_power_dbm(
        antenna::FsaPort::kA, nr.downlink.carriers.f_a_hz, poses[i]));
    double interference_w =
        p_sig_w * db2lin(link.channel().fsa().config().sidelobe_floor_db);
    const auto& tx = link.channel().ap_tx_antenna();
    for (const std::size_t j : slot_members) {
      if (j == i) continue;
      const double offset =
          std::abs(poses[i].azimuth_deg - poses[j].azimuth_deg);
      const double rejection_db =
          tx.config().boresight_gain_dbi - tx.gain_dbi(offset);
      // milback-analyze: no-reduction(interferer sum in fixed node-index order within one service call)
      interference_w += p_sig_w * db2lin(-rejection_db);
    }
    const double noise_eq_w = det.input_power_for_voltage(std::sqrt(
        det.noise_power_v2(link.config().downlink_measurement_bw_hz)));
    nr.effective_sinr_db = lin2db(p_sig_w / (noise_eq_w + interference_w));
    const double ber = core::ber_ook_noncoherent(db2lin(nr.effective_sinr_db));
    nr.goodput_bps = (1.0 - ber) * link.config().downlink_bit_rate_bps;
  }
  return nr;
}

/// The shared round body: partition, flatten, serve every (slot, node) pair
/// on the TrialRunner, divide by the slot share, then sum in service order.
template <typename Round, typename Serve>
Round run_round(const core::MilBackLink& link,
                std::span<const channel::NodePose> poses,
                std::span<const std::string> ids, double min_separation_deg,
                std::size_t bits_per_node, milback::Rng& rng, Serve serve) {
  MILBACK_REQUIRE(poses.size() == ids.size(), "run_round: one id per pose");
  Round round;
  const auto slots = sdm_partition(poses, min_separation_deg);
  round.sdm_slots = slots.size();
  const auto services = flatten_services(slots);

  // One draw from the caller's generator seeds every per-node stream; the
  // streams themselves are pure functions of (round_seed, service index), so
  // the runner may serve them in any order on any number of threads.
  const std::uint64_t round_seed = rng.engine()();
  const sim::TrialRunner runner;
  auto results = runner.map<typename decltype(Round::nodes)::value_type>(
      services.size(), [&](std::size_t k) {
        auto data_rng = Rng::stream(round_seed, k, std::uint64_t{0});
        auto noise_rng = Rng::stream(round_seed, k, std::uint64_t{1});
        return serve(link, poses, ids, services[k], slots[services[k].slot],
                     bits_per_node, data_rng, noise_rng);
      });

  const double slot_share = slots.empty() ? 1.0 : double(slots.size());
  for (auto& nr : results) {
    nr.goodput_bps /= slot_share;
    // milback-analyze: no-reduction(round results aggregated in fixed service order on the calling thread)
    round.aggregate_goodput_bps += nr.goodput_bps;
    round.nodes.push_back(std::move(nr));
  }
  MILBACK_ENSURE(round.nodes.size() == services.size(),
                 "run_round: one result per service");
  return round;
}

}  // namespace

RoundResult run_uplink_round(const core::MilBackLink& link,
                             std::span<const channel::NodePose> poses,
                             std::span<const std::string> ids,
                             double min_separation_deg, std::size_t bits_per_node,
                             milback::Rng& rng) {
  return run_round<RoundResult>(link, poses, ids, min_separation_deg,
                                bits_per_node, rng, serve_uplink_node);
}

DownlinkRoundResult run_downlink_round(const core::MilBackLink& link,
                                       std::span<const channel::NodePose> poses,
                                       std::span<const std::string> ids,
                                       double min_separation_deg,
                                       std::size_t bits_per_node, milback::Rng& rng) {
  return run_round<DownlinkRoundResult>(link, poses, ids, min_separation_deg,
                                        bits_per_node, rng, serve_downlink_node);
}

}  // namespace milback::cell
