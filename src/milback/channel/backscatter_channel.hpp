// End-to-end backscatter channel: AP <-> node geometry, antenna gains,
// path loss, clutter and noise — the single source of truth every higher
// layer (radar pipeline, downlink, uplink) queries for received powers.
//
// Geometry convention: the AP sits at the origin with its horns mechanically
// steered toward the node (as in the paper's prototype). The node pose is
// (distance, azimuth in the AP frame, orientation). `orientation_deg` is the
// angle between the node's FSA broadside normal and the AP-node line — the
// quantity MilBack's orientation sensing estimates, and the knob that picks
// the OAQFM carrier pair.
#pragma once

#include "milback/antenna/fsa.hpp"
#include "milback/channel/environment.hpp"
#include "milback/channel/multipath.hpp"
#include "milback/channel/propagation.hpp"
#include "milback/rf/horn_antenna.hpp"
#include "milback/rf/rf_switch.hpp"

namespace milback::channel {

/// Where the node is and how it is rotated.
struct NodePose {
  double distance_m = 2.0;       ///< AP-to-node range.
  double azimuth_deg = 0.0;      ///< Node bearing in the AP frame.
  double orientation_deg = 0.0;  ///< FSA normal vs the AP-node line.
};

/// Channel-level calibration constants. The implementation losses lump
/// cable/connector losses, polarization mismatch, mixer conversion loss and
/// modulation loss — calibrated once against the paper's reported operating
/// points (see DESIGN.md section 2) and then held fixed for every experiment.
struct ChannelConfig {
  double tx_power_dbm = 27.0;          ///< Power at the AP TX antenna port.
  double implementation_loss_one_way_db = 15.0;  ///< Downlink lumped loss
                                                 ///< (pointing, polarization,
                                                 ///< port coupling).
  double implementation_loss_two_way_db = 8.0;  ///< Uplink/radar lumped loss;
                                                 ///< smaller than one-way
                                                 ///< because the backscatter
                                                 ///< modulation loss is
                                                 ///< accounted explicitly via
                                                 ///< modulation_power_coeff().
  double rx_noise_figure_db = 5.0;     ///< AP receive chain noise figure.
  double multiplicative_noise_db = -26.0;  ///< Residual self-interference floor
                                           ///< relative to received power (LO
                                           ///< phase-noise skirt); caps uplink
                                           ///< SNR at short range.
  double steering_error_sigma_deg = 1.0;   ///< Mechanical steering residual.
  double chirp_amplitude_drift = 2.5e-4;   ///< Chirp-to-chirp clutter amplitude
                                           ///< drift (limits background
                                           ///< subtraction depth).
  double chirp_phase_drift_rad = 1e-3;     ///< Chirp-to-chirp clutter phase drift
                                           ///< (VXG-class chirp coherence).
  double blockage_loss_db = 0.0;           ///< Extra one-way loss on the DIRECT
                                           ///< AP-node path (a human body at
                                           ///< 28 GHz costs ~20-30 dB); applied
                                           ///< twice on backscatter paths.
                                           ///< Indirect (wall-bounce) paths and
                                           ///< clutter are unaffected, which is
                                           ///< what lets a reflector carry the
                                           ///< link through blockage.
  double ambient_loss_db = 0.0;            ///< Extra one-way loss applied to
                                           ///< EVERY path (co-channel
                                           ///< interference folded as an
                                           ///< SNR penalty); unlike blockage it
                                           ///< cannot be routed around via a
                                           ///< reflector.
};

/// One propagation path the FMCW receiver sees (clutter or node return).
struct ReturnPath {
  double delay_s = 0.0;      ///< Round-trip delay.
  double power_w = 0.0;      ///< Received power at the AP RX port.
  double azimuth_deg = 0.0;  ///< Arrival bearing (for the 2-antenna AoA).
  bool modulated = false;    ///< True for the node's switched reflection.
};

/// The AP <-> node link model.
class BackscatterChannel {
 public:
  /// Assembles a channel from its physical pieces.
  BackscatterChannel(ChannelConfig config, rf::HornAntenna ap_tx, rf::HornAntenna ap_rx,
                     antenna::DualPortFsa fsa, Environment environment);

  /// Convenience: paper-default hardware with the given environment.
  static BackscatterChannel make_default(Environment environment,
                                         ChannelConfig config = {});

  /// --- Downlink (one-way) -------------------------------------------------

  /// RF power [dBm] arriving at the given FSA port feed for a tone at
  /// `f_hz`, including the port's frequency-dependent beam gain toward the
  /// AP and the one-way implementation loss. Switch insertion loss is NOT
  /// included (the node model owns its switch).
  double incident_port_power_dbm(antenna::FsaPort port, double f_hz,
                                 const NodePose& pose) const;

  /// Cross-port interference power [dBm]: power a tone at `f_hz` intended
  /// for `port` couples into the node via the *other* port's pattern.
  double cross_port_power_dbm(antenna::FsaPort intended_port, double f_hz,
                              const NodePose& pose) const;

  /// --- Uplink / radar (two-way) --------------------------------------------

  /// Backscattered power [dBm] at one AP RX antenna when `port` reflects
  /// with power coefficient `reflect_power_coeff` at frequency `f_hz`.
  double backscatter_power_dbm(antenna::FsaPort port, double f_hz, const NodePose& pose,
                               double reflect_power_coeff) const;

  /// Return path (delay/power/bearing) of the node's reflection for the
  /// FMCW pipeline. Power uses the reflect-state switch coefficient.
  ReturnPath node_return(antenna::FsaPort port, double f_hz, const NodePose& pose,
                         double reflect_power_coeff) const;

  /// Return paths of every clutter reflector (AP horns steered at the node,
  /// so clutter off the node bearing is attenuated by the horn pattern).
  std::vector<ReturnPath> clutter_returns(double f_hz, const NodePose& pose) const;

  /// Multipath ghosts of the node's modulated return: single-bounce paths
  /// AP -> reflector -> node -> AP (and the reciprocal), which carry the
  /// node's switching modulation and therefore SURVIVE background
  /// subtraction, appearing as weaker modulated targets at longer apparent
  /// range. One path per environment reflector; paths below -40 dB of the
  /// direct return are dropped. `ghost_bounce_loss_db` is the specular
  /// reflection loss per wall bounce (~10 dB at 28 GHz).
  std::vector<ReturnPath> node_ghost_returns(antenna::FsaPort port, double f_hz,
                                             const NodePose& pose,
                                             double reflect_power_coeff,
                                             double ghost_bounce_loss_db = 10.0) const;

  /// --- Multipath (PathSet queries) -----------------------------------------
  ///
  /// With a non-trivial `MultipathConfig` installed, the channel stops being
  /// a single ray: every budget query below maximizes over the surviving
  /// paths, and `modulated_returns` superposes per-path echoes. With the
  /// default LoS-only config each query returns the legacy single-ray value
  /// bit-for-bit (enforced by the NLoS regression suite).

  /// Installs the scene geometry (walls + moving blockers).
  void set_multipath(MultipathConfig multipath);
  const MultipathConfig& multipath() const noexcept { return multipath_; }

  /// Sim time at which moving blockers are evaluated for subsequent path
  /// queries. Set serially (e.g. by the cell engine before fanning a service
  /// sweep out to workers) so traced path sets stay thread-invariant.
  void set_path_time_s(double time_s);

  /// Traces the current path set to the node (records path-census obs).
  PathSet node_path_set(const NodePose& pose) const;

  /// Downlink power [dBm] over the best surviving path (legacy
  /// `incident_port_power_dbm` in the LoS-only case).
  double best_path_incident_power_dbm(antenna::FsaPort port, double f_hz,
                                      const NodePose& pose) const;

  /// Cross-port interference [dBm] over the best surviving path.
  double best_path_cross_port_power_dbm(antenna::FsaPort intended_port, double f_hz,
                                        const NodePose& pose) const;

  /// Backscattered power [dBm] over the best surviving round-trip path pair
  /// (legacy `backscatter_power_dbm` in the LoS-only case).
  double best_path_backscatter_power_dbm(antenna::FsaPort port, double f_hz,
                                         const NodePose& pose,
                                         double reflect_power_coeff) const;

  /// Every modulated return the FMCW receiver sees: entry 0 is the direct
  /// node return (with blocker severing applied), followed by the legacy
  /// clutter-bounce ghosts and, when walls are configured, the wall echoes
  /// (hybrid direct+bounce pairs and double-bounce paths). Entries more than
  /// 40 dB below the strongest are dropped. Reduces exactly to
  /// `node_return` + `node_ghost_returns` in the LoS-only case.
  std::vector<ReturnPath> modulated_returns(antenna::FsaPort port, double f_hz,
                                            const NodePose& pose,
                                            double reflect_power_coeff) const;

  /// `modulated_returns` for a burst whose horns are mechanically steered at
  /// `steer_azimuth_deg` instead of the node — the second pass a
  /// reflector-aware localizer fires at a wall bearing. The direct return
  /// (and each legacy clutter ghost) pays the off-steer pattern penalty while
  /// wall echoes near the steer bearing are received at full horn gain.
  std::vector<ReturnPath> modulated_returns_steered(antenna::FsaPort port, double f_hz,
                                                    const NodePose& pose,
                                                    double reflect_power_coeff,
                                                    double steer_azimuth_deg) const;

  /// How much stronger [dB] the double-bounce echo on `indirect` is than the
  /// node-steered (blocked) direct return when the AP re-steers its horns at
  /// `horn_steer_azimuth_deg`; positive means the echo dominates and a
  /// reflector-aware localizer should fire a steered burst and range on it.
  double indirect_return_advantage_db(antenna::FsaPort port, double f_hz,
                                      const NodePose& pose, const PropPath& indirect,
                                      double direct_blocker_loss_db,
                                      double horn_steer_azimuth_deg) const;

  /// --- Noise ---------------------------------------------------------------

  /// AP thermal noise floor [W] in `bandwidth_hz` including the RX noise figure.
  double ap_noise_floor_w(double bandwidth_hz) const noexcept;

  /// Effective uplink noise [W]: thermal floor plus the multiplicative
  /// residual-self-interference term proportional to `rx_power_w`.
  double effective_uplink_noise_w(double rx_power_w, double bandwidth_hz) const noexcept;

  /// --- Accessors -----------------------------------------------------------

  const ChannelConfig& config() const noexcept { return config_; }
  /// Mutable config access (e.g. to inject blockage mid-scenario).
  ChannelConfig& config() noexcept { return config_; }
  const antenna::DualPortFsa& fsa() const noexcept { return fsa_; }
  const rf::HornAntenna& ap_tx_antenna() const noexcept { return ap_tx_; }
  const rf::HornAntenna& ap_rx_antenna() const noexcept { return ap_rx_; }

 private:
  /// One-way gain/loss of an indirect path relative to the ideal unblocked
  /// direct leg (FSPL spread, horn and FSA pattern deltas, bounce and
  /// blocker losses). `gain_port` selects which FSA port's pattern applies.
  /// `swept_fsa` credits the FMCW sweep with illuminating the bounce angle
  /// at its own aligned frequency; `horn_steer_deg` is the bearing the AP
  /// horns point at (the node for an ordinary burst, `path.aoa_deg` when the
  /// AP re-steers at the wall).
  double one_way_path_delta_db(antenna::FsaPort gain_port, double f_hz,
                               const NodePose& pose, const PropPath& path,
                               bool swept_fsa, double horn_steer_deg) const;
  /// Shared body of `modulated_returns` / `modulated_returns_steered`.
  std::vector<ReturnPath> modulated_returns_impl(antenna::FsaPort port, double f_hz,
                                                 const NodePose& pose,
                                                 double reflect_power_coeff,
                                                 double steer_azimuth_deg) const;
  /// Best one-way adjustment [dB] over the surviving paths (<= 0 only when
  /// every path is worse than the unblocked direct ray).
  double best_one_way_delta_db(antenna::FsaPort gain_port, double f_hz,
                               const NodePose& pose) const;
  /// Best round-trip adjustment [dB] over surviving path pairs.
  double best_two_way_delta_db(antenna::FsaPort port, double f_hz,
                               const NodePose& pose) const;

  ChannelConfig config_;
  rf::HornAntenna ap_tx_;
  rf::HornAntenna ap_rx_;
  antenna::DualPortFsa fsa_;
  Environment environment_;
  MultipathConfig multipath_;
  double path_time_s_ = 0.0;
};

}  // namespace milback::channel
