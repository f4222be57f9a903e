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
// Engines consume the timeline through the queries below (ground truth) or
// through resil::MembershipTracker (incremental notification).  ChurnModel
// generates Poisson (exponential inter-arrival) schedules per node;
// trace-driven timelines are built directly from an event list.
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
