// Heartbeat/timeout failure detection.
//
// The farmer cannot observe a remote crash directly; it can only notice
// silence.  Each watched node is expected to heartbeat every
// `heartbeat_period`; a node whose last heartbeat is older than `timeout`
// becomes a suspect, so detection latency is `timeout` plus at most one
// period.  The detector is transport-agnostic: a caller records a received
// beat with `heartbeat`, and `advance` synthesises the beats an available
// node would have sent in simulation.
#pragma once

#include <functional>
#include <vector>

#include "support/flat_map.hpp"
#include "support/ids.hpp"

namespace grasp::resil {

class FailureDetector {
 public:
  struct Params {
    Seconds heartbeat_period{1.0};
    /// Declare a node suspect when now - last_heartbeat > timeout.
    Seconds timeout{5.0};

    /// Throws std::invalid_argument unless both fields are finite and
    /// positive.  A NaN period would reach advance()'s floor-to-integer
    /// cast (undefined behaviour); an infinite timeout would silently turn
    /// detection off.  Every engine that builds a detector calls it from
    /// its own constructor.
    void validate() const;
  };

  explicit FailureDetector(Params params);

  /// Begin (or restart) watching `node`, crediting a heartbeat at `now` so
  /// a fresh node is never instantly suspect.
  void watch(NodeId node, Seconds now);
  void unwatch(NodeId node);
  [[nodiscard]] bool watching(NodeId node) const;

  /// Record a heartbeat received from `node` at time `at`.  Stale stamps
  /// (older than the latest) are ignored.
  void heartbeat(NodeId node, Seconds at);

  /// Simulated transport: for every watched node, credit the latest
  /// heartbeat tick (a multiple of heartbeat_period in (last_advance, now])
  /// at which `alive(node, tick)` holds.  `now` must be non-decreasing.
  void advance(Seconds now,
               const std::function<bool(NodeId, Seconds)>& alive);

  /// Watched nodes whose silence exceeds the timeout, in id order.  Returns
  /// at once, with no slot walk, while even the oldest credited heartbeat
  /// is within the timeout.
  [[nodiscard]] std::vector<NodeId> suspects(Seconds now) const;

  /// Every watched node, in id order (the farmer's live view of the pool).
  [[nodiscard]] std::vector<NodeId> watched() const;

  /// Last credited heartbeat; Seconds{-1} when the node is not watched.
  [[nodiscard]] Seconds last_heartbeat(NodeId node) const;

  [[nodiscard]] const Params& params() const { return params_; }

 private:
  /// Sentinel for "slot not watched".  Legitimate heartbeat stamps are
  /// non-negative, so this never collides with a real timestamp (and it is
  /// exactly what last_heartbeat reports for unwatched nodes).
  static constexpr double kUnwatched = -1.0;

  Params params_;
  /// Per-tick state, indexed directly by node id (NodeMap): the suspect
  /// scan and heartbeat credit walk a flat array in id order — no hashing,
  /// and id-ordered output falls out free.
  NodeMap<Seconds> last_;
  /// Lower bound on every watched node's last heartbeat (+inf with none
  /// watched).  advance() sets it exactly in its slot walk and watch() can
  /// only lower it; heartbeat() and unwatch() raise the true minimum, so
  /// the bound stays valid without being touched.
  Seconds oldest_;
  std::size_t watched_count_ = 0;
  Seconds last_advance_{0.0};
};

}  // namespace grasp::resil
