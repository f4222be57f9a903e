#include "gridsim/churn.hpp"

#include <algorithm>
#include <iterator>

#include "support/rng.hpp"

namespace grasp::gridsim {

namespace {

/// (node, time) order over ChurnEvents, for the per-node index.
bool node_then_time(const ChurnEvent& a, const ChurnEvent& b) {
  if (a.node.value != b.node.value) return a.node.value < b.node.value;
  return a.at < b.at;
}

/// Position just past the last event of `node` at or before `t` in a
/// node_then_time-sorted list.
std::vector<ChurnEvent>::const_iterator after(
    const std::vector<ChurnEvent>& list, NodeId node, Seconds t) {
  return std::upper_bound(list.begin(), list.end(),
                          ChurnEvent{t, ChurnEventKind::Crash, node},
                          node_then_time);
}

}  // namespace

const char* to_string(ChurnEventKind kind) {
  switch (kind) {
    case ChurnEventKind::Crash: return "crash";
    case ChurnEventKind::Leave: return "leave";
    case ChurnEventKind::Join: return "join";
    case ChurnEventKind::Rejoin: return "rejoin";
  }
  return "unknown";
}

ChurnTimeline::ChurnTimeline(std::vector<ChurnEvent> events,
                             std::vector<NodeId> initially_absent)
    : events_(std::move(events)),
      initially_absent_(std::move(initially_absent)) {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const ChurnEvent& a, const ChurnEvent& b) {
                     return a.at < b.at;
                   });
  by_node_ = events_;
  std::stable_sort(by_node_.begin(), by_node_.end(), node_then_time);
  std::copy_if(by_node_.begin(), by_node_.end(), std::back_inserter(crashes_),
               [](const ChurnEvent& e) {
                 return e.kind == ChurnEventKind::Crash;
               });
  std::sort(initially_absent_.begin(), initially_absent_.end(), by_id);
  initially_absent_.erase(
      std::unique(initially_absent_.begin(), initially_absent_.end()),
      initially_absent_.end());
}

std::size_t ChurnTimeline::count(ChurnEventKind kind) const {
  return static_cast<std::size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [kind](const ChurnEvent& e) { return e.kind == kind; }));
}

bool ChurnTimeline::is_member(NodeId node, Seconds t) const {
  const auto it = after(by_node_, node, t);
  if (it == by_node_.begin() || std::prev(it)->node != node)
    return initially_member(node);
  const ChurnEventKind last = std::prev(it)->kind;
  return last == ChurnEventKind::Join || last == ChurnEventKind::Rejoin;
}

bool ChurnTimeline::crashed_during(NodeId node, Seconds from,
                                   Seconds to) const {
  const auto it = after(crashes_, node, from);
  return it != crashes_.end() && it->node == node && it->at <= to;
}

std::vector<ChurnEvent> ChurnTimeline::events_between(Seconds from,
                                                      Seconds to) const {
  std::vector<ChurnEvent> out;
  auto it = std::upper_bound(
      events_.begin(), events_.end(), from,
      [](Seconds f, const ChurnEvent& e) { return f < e.at; });
  for (; it != events_.end() && !(it->at > to); ++it) out.push_back(*it);
  return out;
}

std::vector<NodeId> ChurnTimeline::members_at(const std::vector<NodeId>& pool,
                                              Seconds t) const {
  std::vector<NodeId> out;
  out.reserve(pool.size());
  for (const NodeId n : pool)
    if (is_member(n, t)) out.push_back(n);
  return out;
}

ChurnTimeline ChurnModel::generate(const std::vector<NodeId>& churnable,
                                   const Params& params) {
  std::vector<ChurnEvent> events;
  Rng master(params.seed);
  for (const NodeId node : churnable) {
    // Independent stream per node: a node's schedule depends only on the
    // master seed and its position, never on other nodes' draw counts.
    Rng rng = master.split(node.value);
    double t = params.warmup.value + rng.exponential(1.0 / params.mtbf);
    while (t < params.horizon.value) {
      const bool crash = rng.bernoulli(params.crash_fraction);
      events.push_back({Seconds{t},
                        crash ? ChurnEventKind::Crash : ChurnEventKind::Leave,
                        node});
      if (!rng.bernoulli(params.rejoin_probability)) break;  // gone for good
      const double delay =
          rng.exponential(1.0 / std::max(1e-9, params.mean_rejoin_delay.value));
      const double back = t + std::max(1.0, delay);
      if (back >= params.horizon.value) break;
      events.push_back({Seconds{back}, ChurnEventKind::Rejoin, node});
      t = back + rng.exponential(1.0 / params.mtbf);
    }
  }
  return ChurnTimeline(std::move(events));
}

}  // namespace grasp::gridsim
