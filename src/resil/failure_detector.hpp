// Heartbeat/timeout failure detection.
//
// The farmer cannot observe a remote crash directly; it can only notice
// silence.  Each watched node is expected to heartbeat every
// `heartbeat_period`; a node whose last heartbeat is older than `timeout`
// becomes a suspect, so detection latency is `timeout` plus at most one
// period.  The detector is transport-agnostic: a caller records a received
// beat with `heartbeat`, and `advance` synthesises the beats an available
// node would have sent in simulation.
//
// In simulation the beats come from the grid's liveness cursor.  A node's
// membership only changes at its own churn events, so the detector caches,
// per node, the time of the node's next event after its last scanned tick.
// While that event lies ahead, every tick crossed by an advance sees the
// state the cursor holds now: an alive node is credited the latest tick and
// a dead one nothing, with no timeline query.  Only a node whose cached
// event has passed replays the exact per-tick backward scan.  An advance
// that crosses no tick is O(1); one that does is O(watched) plus
// O(ticks x log k) per node that changed.
#pragma once

#include <vector>

#include "gridsim/churn.hpp"
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
  /// at which `live.is_member(node, tick)` holds.  A `now` at or before the
  /// last advance does nothing.  Throws std::invalid_argument, before any
  /// state changes, when `now` is not finite.
  void advance(Seconds now, gridsim::LivenessCursor& live);

  /// Watched nodes whose silence exceeds the timeout, in id order.  Returns
  /// at once, with no slot walk, while even the oldest credited heartbeat
  /// is within the timeout.
  [[nodiscard]] std::vector<NodeId> suspects(Seconds now) const {
    // `now - last` cannot exceed `now - oldest_` (rounding is monotone), so
    // no watched node is suspect while the bound is within the timeout.
    if (!(now - oldest_ > params_.timeout)) return {};
    return scan_suspects(now);
  }

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

  /// A time below which floor(now / heartbeat_period) < tick.
  [[nodiscard]] Seconds quiet_bound(long long tick) const;
  [[nodiscard]] std::vector<NodeId> scan_suspects(Seconds now) const;

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
  /// Per node: its first churn event after the last tick advance() scanned
  /// for it (-inf before the first scan).  Valid across unwatch/watch: the
  /// ticks of a later advance all lie at or after that scanned tick.
  NodeMap<Seconds> next_change_;
  std::size_t watched_count_ = 0;
  Seconds last_advance_{0.0};
  /// advance() to a time below it crosses no tick: quiet_bound of the
  /// first tick after last_advance_.
  Seconds quiet_until_;
};

}  // namespace grasp::resil
