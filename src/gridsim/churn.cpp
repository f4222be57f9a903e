#include "gridsim/churn.hpp"

#include <algorithm>
#include <iterator>
#include <limits>
#include <numeric>
#include <span>
#include <stdexcept>

#include "support/flat_map.hpp"
#include "support/rng.hpp"

namespace grasp::gridsim {

namespace {

/// (node, time) order over ChurnEvents, for the per-node index.
bool node_then_time(const ChurnEvent& a, const ChurnEvent& b) {
  if (a.node.value != b.node.value) return a.node.value < b.node.value;
  return a.at < b.at;
}

/// Offsets into a node_then_time-sorted list: node v's events are
/// [offsets[v], offsets[v + 1]).  `ids` is one past the largest event id.
std::vector<std::size_t> node_offsets(const std::vector<ChurnEvent>& list,
                                      std::size_t ids) {
  std::vector<std::size_t> offsets(ids + 1, 0);
  for (const ChurnEvent& e : list) ++offsets[e.node.value + 1];
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  return offsets;
}

/// Node `node`'s run of a node-grouped list; empty for a node past the
/// table, including the invalid id.
std::span<const ChurnEvent> of_node(const std::vector<ChurnEvent>& list,
                                    const std::vector<std::size_t>& offsets,
                                    NodeId node) {
  if (!node.is_valid() || node.value + 1 >= offsets.size()) return {};
  return {list.data() + offsets[node.value],
          list.data() + offsets[node.value + 1]};
}

/// Position just past the last event at or before `t` in a time-sorted run.
const ChurnEvent* after(std::span<const ChurnEvent> run, Seconds t) {
  return std::upper_bound(
      run.data(), run.data() + run.size(), t,
      [](Seconds x, const ChurnEvent& e) { return x < e.at; });
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
  std::size_t ids = 0;
  for (const ChurnEvent& e : events_) {
    if (!e.node.is_valid() || e.node.value >= kMaxDenseNodeId)
      throw std::invalid_argument(
          "ChurnTimeline: event node id outside the dense id range");
    ids = std::max<std::size_t>(ids, e.node.value + 1);
  }
  by_node_ = events_;
  std::stable_sort(by_node_.begin(), by_node_.end(), node_then_time);
  std::copy_if(by_node_.begin(), by_node_.end(), std::back_inserter(crashes_),
               [](const ChurnEvent& e) {
                 return e.kind == ChurnEventKind::Crash;
               });
  node_start_ = node_offsets(by_node_, ids);
  crash_start_ = node_offsets(crashes_, ids);
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
  const auto run = of_node(by_node_, node_start_, node);
  const ChurnEvent* it = after(run, t);
  if (it == run.data()) return initially_member(node);
  const ChurnEventKind last = std::prev(it)->kind;
  return last == ChurnEventKind::Join || last == ChurnEventKind::Rejoin;
}

bool ChurnTimeline::crashed_during(NodeId node, Seconds from,
                                   Seconds to) const {
  const auto run = of_node(crashes_, crash_start_, node);
  const ChurnEvent* it = after(run, from);
  return it != run.data() + run.size() && it->at <= to;
}

Seconds ChurnTimeline::next_change(NodeId node, Seconds t) const {
  const auto run = of_node(by_node_, node_start_, node);
  const ChurnEvent* it = after(run, t);
  return it == run.data() + run.size()
             ? Seconds{std::numeric_limits<double>::infinity()}
             : it->at;
}

Seconds ChurnTimeline::next_event_after(Seconds t) const {
  const ChurnEvent* it = after(events_, t);
  return it == events_.data() + events_.size()
             ? Seconds{std::numeric_limits<double>::infinity()}
             : it->at;
}

std::vector<ChurnEvent> ChurnTimeline::events_between(Seconds from,
                                                      Seconds to) const {
  std::vector<ChurnEvent> out;
  for (const ChurnEvent* it = after(events_, from);
       it != events_.data() + events_.size() && !(it->at > to); ++it)
    out.push_back(*it);
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

LivenessCursor::LivenessCursor(const ChurnTimeline& timeline)
    : timeline_(&timeline),
      at_(Seconds{-std::numeric_limits<double>::infinity()}) {
  std::size_t ids = 0;
  for (const ChurnEvent& e : timeline.events())
    ids = std::max<std::size_t>(ids, e.node.value + 1);
  member_.resize(ids);
  for (std::size_t v = 0; v < ids; ++v)
    member_[v] = timeline.initially_member(NodeId{v}) ? 1 : 0;
  last_crash_.assign(ids, at_);
  apply_through(at_);  // the cursor starts at -inf: events there are past
}

void LivenessCursor::apply_through(Seconds now) {
  const std::vector<ChurnEvent>& events = timeline_->events();
  for (; next_ < events.size() && events[next_].at <= now; ++next_) {
    const ChurnEvent& e = events[next_];
    switch (e.kind) {
      case ChurnEventKind::Crash:
        last_crash_[e.node.value] = e.at;
        [[fallthrough]];
      case ChurnEventKind::Leave:
        member_[e.node.value] = 0;
        break;
      case ChurnEventKind::Join:
      case ChurnEventKind::Rejoin:
        member_[e.node.value] = 1;
        break;
    }
  }
  at_ = now;
}

bool LivenessCursor::is_member(NodeId node, Seconds now) {
  if (!reach(now)) return timeline_->is_member(node, now);
  if (!node.is_valid() || node.value >= member_.size())
    return timeline_->initially_member(node);
  return member_[node.value] != 0;
}

bool LivenessCursor::crashed_during(NodeId node, Seconds from, Seconds now) {
  if (!reach(now)) return timeline_->crashed_during(node, from, now);
  if (!node.is_valid() || node.value >= last_crash_.size()) return false;
  return last_crash_[node.value] > from;
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
