// Heartbeat/timeout failure detection.
//
// The farmer cannot observe a remote crash directly; it can only notice
// silence.  Each watched node is expected to heartbeat every
// `heartbeat_period`; a node whose last heartbeat is older than its
// effective timeout becomes a suspect.  The detector is transport-agnostic:
// heartbeats arrive either from a real channel (resil/heartbeat.hpp feeds it
// from mp::Communicator messages) or from `advance`, which synthesises the
// beats an available node would have sent in simulation.
//
// Two detection modes:
//
//   * Fixed — one global `timeout` for every node (the original
//     behaviour).  Detection latency is `timeout` plus at most one period.
//   * Accrual — per-node inter-arrival statistics (Welford mean/variance,
//     O(1) per beat, NodeMap storage) set a per-node effective timeout
//       clamp(mean + suspicion_sigma * stddev, min_effective, timeout)
//     so a node on a slow-but-steady link earns a longer leash while a
//     normally-chatty node is suspected as soon as its silence is
//     statistically abnormal.  `timeout` remains a HARD CAP: the effective
//     timeout never exceeds it, so the `timeout + period` detection-latency
//     bound (which the farmer-failover promotion guarantees and the churn
//     property harness assert against) holds in both modes.  Until a node
//     has `min_samples` inter-arrivals the fixed timeout applies; gaps
//     longer than `timeout` are excluded from the statistics (they are
//     outages being survived, not link cadence).
#pragma once

#include <functional>
#include <vector>

#include "support/flat_map.hpp"
#include "support/ids.hpp"

namespace grasp::resil {

enum class DetectionMode {
  Fixed,    ///< one global timeout for every node
  Accrual,  ///< per-node inter-arrival statistics, timeout as hard cap
};

class FailureDetector {
 public:
  struct Params {
    Seconds heartbeat_period{1.0};
    /// Fixed mode: declare a node suspect when now - last_heartbeat >
    /// timeout.  Accrual mode: hard cap on every per-node effective
    /// timeout (the detection-latency bound is identical in both modes).
    Seconds timeout{5.0};
    DetectionMode mode = DetectionMode::Fixed;
    /// Accrual: effective timeout = mean + suspicion_sigma * stddev of the
    /// node's observed inter-arrival times (then clamped).
    double suspicion_sigma = 4.0;
    /// Accrual: lower clamp on the effective timeout.  0 selects the
    /// automatic floor of 1.5 * heartbeat_period, which keeps a perfectly
    /// regular node (stddev 0) from being suspected between two beats.
    Seconds min_effective{0.0};
    /// Accrual: below this many inter-arrival samples the node falls back
    /// to the fixed `timeout` (no statistics, no early suspicion).
    std::size_t min_samples = 3;
  };

  explicit FailureDetector(Params params);

  /// Begin (or restart) watching `node`, crediting a heartbeat at `now` so
  /// a fresh node is never instantly suspect.  Accrual statistics survive
  /// a re-watch: the link cadence of a rejoining node is the same link.
  void watch(NodeId node, Seconds now);
  void unwatch(NodeId node);
  [[nodiscard]] bool watching(NodeId node) const;

  /// Record a heartbeat received from `node` at time `at`.  Stale stamps
  /// (older than the latest) are ignored.
  void heartbeat(NodeId node, Seconds at);

  /// Simulated transport: for every watched node, credit the heartbeat
  /// ticks (multiples of heartbeat_period in (last_advance, now]) at which
  /// `alive(node, tick)` holds.  `now` must be non-decreasing.
  void advance(Seconds now,
               const std::function<bool(NodeId, Seconds)>& alive);

  /// Watched nodes whose silence exceeds their effective timeout, in id
  /// order.
  [[nodiscard]] std::vector<NodeId> suspects(Seconds now) const;

  /// Every watched node, in id order (the farmer's live view of the pool).
  [[nodiscard]] std::vector<NodeId> watched() const;

  /// Last credited heartbeat; Seconds{-1} when the node is not watched.
  [[nodiscard]] Seconds last_heartbeat(NodeId node) const;

  /// The silence threshold currently applied to `node`: `timeout` in fixed
  /// mode (or while the node is under-sampled), the clamped statistical
  /// bound in accrual mode.  Defined for unwatched nodes too (their stats
  /// persist), so callers can report it after a declare-dead.
  [[nodiscard]] Seconds effective_timeout(NodeId node) const;

  /// Suspicion level in [0, inf): silence divided by the node's effective
  /// timeout.  Crosses 1.0 exactly when the node becomes a suspect.
  [[nodiscard]] double suspicion(NodeId node, Seconds now) const;

  /// Inter-arrival samples accumulated for `node` (accrual mode only;
  /// always 0 in fixed mode).
  [[nodiscard]] std::size_t beat_samples(NodeId node) const;

  [[nodiscard]] const Params& params() const { return params_; }

 private:
  /// Sentinel for "slot not watched".  Legitimate heartbeat stamps are
  /// non-negative, so this never collides with a real timestamp (and it is
  /// exactly what last_heartbeat reports for unwatched nodes).
  static constexpr double kUnwatched = -1.0;

  /// Per-node Welford state over heartbeat inter-arrival times.  Plain POD
  /// so NodeMap's dense default-filled storage applies.
  struct BeatStats {
    std::size_t n = 0;
    double mean = 0.0;
    double m2 = 0.0;
  };

  /// Credit a beat at `at` (already validated newer than last_), sampling
  /// the inter-arrival gap in accrual mode.
  void credit(NodeId node, Seconds at);

  Params params_;
  /// Per-tick state, indexed directly by node id (NodeMap): the suspect
  /// scan and heartbeat credit walk a flat array in id order — no hashing,
  /// and id-ordered output falls out free.
  NodeMap<Seconds> last_;
  /// Accrual-mode inter-arrival statistics; untouched in fixed mode.
  NodeMap<BeatStats> stats_;
  std::size_t watched_count_ = 0;
  Seconds last_advance_{0.0};
};

}  // namespace grasp::resil
