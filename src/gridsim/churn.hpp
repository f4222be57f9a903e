// Node churn: the membership dimension of grid dynamism.
//
// The load models capture nodes *slowing down*; real grid pools also lose
// and gain whole members.  A ChurnTimeline is a deterministic, immutable
// schedule of membership events for one simulation run:
//
//   Crash  — abrupt departure; in-flight work on the node is lost
//   Leave  — announced departure; in-flight work drains, no new dispatches
//   Join   — a node not in the initial pool becomes available
//   Rejoin — a previously crashed/left node returns
//
// Engines consume the timeline through the queries below (ground truth at
// any time), through a LivenessCursor (ground truth at a clock that moves
// forward) or through resil::MembershipTracker (incremental notification,
// built on a cursor).  ChurnModel generates Poisson (exponential
// inter-arrival) schedules per node; trace-driven timelines are built
// directly from an event list.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "support/ids.hpp"

namespace grasp::gridsim {

enum class ChurnEventKind { Crash, Leave, Join, Rejoin };

[[nodiscard]] const char* to_string(ChurnEventKind kind);

struct ChurnEvent {
  Seconds at;
  ChurnEventKind kind;
  NodeId node;
};

/// Immutable membership schedule.  All queries are pure functions of the
/// construction arguments, so two engines replaying the same timeline see
/// identical membership histories.
class ChurnTimeline {
 public:
  ChurnTimeline() = default;

  /// `events` are sorted on construction (stable, by time).  Nodes listed in
  /// `initially_absent` are not members until a Join event admits them.
  /// Throws std::invalid_argument when an event names the invalid node id
  /// or one at or past kMaxDenseNodeId (support/flat_map.hpp): the index
  /// is dense in node ids.
  explicit ChurnTimeline(std::vector<ChurnEvent> events,
                         std::vector<NodeId> initially_absent = {});

  [[nodiscard]] const std::vector<ChurnEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t count(ChurnEventKind kind) const;

  [[nodiscard]] bool initially_member(NodeId node) const {
    return !std::binary_search(initially_absent_.begin(),
                               initially_absent_.end(), node, by_id);
  }

  /// Membership state at time t: the initial state with every event at or
  /// before t applied.  O(log k) in the node's own k events.
  [[nodiscard]] bool is_member(NodeId node, Seconds t) const;

  /// True when a Crash event for `node` lies in (from, to].  The engines use
  /// this to invalidate work whose dispatch-to-completion window straddles a
  /// crash (the completion is a zombie: physically the node died mid-chunk).
  /// O(log k) in the node's own k crashes.
  [[nodiscard]] bool crashed_during(NodeId node, Seconds from,
                                    Seconds to) const;

  /// Time of `node`'s first event strictly after t; +inf when it has none.
  /// Membership cannot change in (t, next_change(node, t)).  O(log k).
  [[nodiscard]] Seconds next_change(NodeId node, Seconds t) const;

  /// Time of the first event strictly after t, on any node; +inf when
  /// there is none.  O(log k) in all k events.
  [[nodiscard]] Seconds next_event_after(Seconds t) const;

  /// Events with from < at <= to, in time order.
  [[nodiscard]] std::vector<ChurnEvent> events_between(Seconds from,
                                                       Seconds to) const;

  /// Members at time t among `pool` (pool order preserved).
  [[nodiscard]] std::vector<NodeId> members_at(
      const std::vector<NodeId>& pool, Seconds t) const;

 private:
  static bool by_id(NodeId a, NodeId b) { return a.value < b.value; }

  std::vector<ChurnEvent> events_;  ///< sorted by time
  /// Per-node index: the events grouped by node (ascending id), each group
  /// in events_ order.  Every event sets membership outright, so the last
  /// one at or before t decides is_member.
  std::vector<ChurnEvent> by_node_;
  std::vector<ChurnEvent> crashes_;  ///< the Crash events, same order
  /// Offset tables into the two lists: node v's run is [start[v],
  /// start[v + 1]).  They end at the largest event id; a query for a node
  /// past the end (or the invalid id) finds no events.
  std::vector<std::size_t> node_start_;
  std::vector<std::size_t> crash_start_;
  std::vector<NodeId> initially_absent_;  ///< sorted, unique
};

/// The simulated grid's liveness source: a cursor over a timeline's events
/// that moves forward with the clock.  It keeps each node's current
/// membership and the time of its last crash in dense tables, so is_member
/// and crashed_during at a non-decreasing `now` cost O(1) amortised; a time
/// before the cursor falls back to the timeline's O(log k) query.  Every
/// answer equals the timeline's own.  The timeline must outlive the cursor.
class LivenessCursor {
 public:
  explicit LivenessCursor(const ChurnTimeline& timeline);

  [[nodiscard]] const ChurnTimeline& timeline() const { return *timeline_; }

  /// Apply every event at or before `now`.  A `now` before the cursor (or
  /// NaN) leaves it where it is.
  void advance_to(Seconds now) { (void)reach(now); }

  /// ChurnTimeline::is_member(node, now).
  [[nodiscard]] bool is_member(NodeId node, Seconds now);

  /// ChurnTimeline::crashed_during(node, from, now): the node's last crash
  /// at or before `now` lies after `from`.
  [[nodiscard]] bool crashed_during(NodeId node, Seconds from, Seconds now);

  /// The events at or before the cursor are events()[0, applied()).
  [[nodiscard]] std::size_t applied() const { return next_; }

 private:
  /// advance_to(now); false when `now` lies before the cursor.
  bool reach(Seconds now) {
    if (!(now >= at_)) return false;
    if (now > at_) apply_through(now);
    return true;
  }
  /// Apply the events in (at_, now] and move the cursor to `now`.
  void apply_through(Seconds now);

  const ChurnTimeline* timeline_;
  std::size_t next_ = 0;  ///< first event not yet applied
  Seconds at_;            ///< every event at or before it is applied
  /// Indexed by node id up to the largest event id; a node past the end has
  /// no events, so it keeps its initial state and never crashes.
  std::vector<char> member_;
  std::vector<Seconds> last_crash_;  ///< -inf before the first crash
};

/// Poisson churn-schedule generator.
class ChurnModel {
 public:
  struct Params {
    /// Mean time between failures per churnable node (exponential).
    double mtbf = 400.0;
    /// Fraction of failures that are abrupt crashes (the rest are announced
    /// leaves).
    double crash_fraction = 0.75;
    /// Probability a departed node returns.
    double rejoin_probability = 0.7;
    /// Mean delay before a departed node rejoins (exponential).
    Seconds mean_rejoin_delay{60.0};
    /// No events are generated at or beyond the horizon.
    Seconds horizon{600.0};
    /// Grace period with no failures (lets calibration finish undisturbed).
    Seconds warmup{20.0};
    std::uint64_t seed = 1;
  };

  /// Generate a schedule over `churnable`.  Deterministic in (params.seed,
  /// churnable order); per-node streams are split from the master seed so
  /// one node's schedule does not depend on another's draw count.
  [[nodiscard]] static ChurnTimeline generate(
      const std::vector<NodeId>& churnable, const Params& params);
};

}  // namespace grasp::gridsim
