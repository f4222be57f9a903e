// Property test of ChurnTimeline's per-node index: on seeded random
// timelines, is_member and crashed_during answer exactly as a linear scan
// of the time-sorted event list does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "gridsim/churn.hpp"
#include "support/flat_map.hpp"
#include "support/rng.hpp"

namespace grasp::gridsim {
namespace {

bool scan_is_member(const ChurnTimeline& tl, NodeId node, Seconds t) {
  bool member = tl.initially_member(node);
  for (const ChurnEvent& e : tl.events()) {
    if (e.at > t) break;
    if (e.node != node) continue;
    member = e.kind == ChurnEventKind::Join ||
             e.kind == ChurnEventKind::Rejoin;
  }
  return member;
}

bool scan_crashed_during(const ChurnTimeline& tl, NodeId node, Seconds from,
                         Seconds to) {
  for (const ChurnEvent& e : tl.events()) {
    if (e.at > to) break;
    if (e.at > from && e.node == node && e.kind == ChurnEventKind::Crash)
      return true;
  }
  return false;
}

/// Event and query times on a coarse half-second grid, so equal-time
/// events (same node and different nodes) and queries landing exactly on
/// an event are common.
Seconds grid_time(Rng& rng) {
  return Seconds{0.5 * static_cast<double>(rng.next() % 41)};
}

TEST(ChurnTimelineIndex, QueriesMatchALinearScan) {
  constexpr std::uint64_t kNodes = 6;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    std::vector<ChurnEvent> events;
    const std::size_t count = rng.next() % 60;
    for (std::size_t i = 0; i < count; ++i)
      events.push_back({grid_time(rng),
                        static_cast<ChurnEventKind>(rng.next() % 4),
                        NodeId{rng.next() % kNodes}});
    std::vector<NodeId> absent;
    for (std::uint64_t n = 0; n < kNodes; ++n)
      if (rng.next() % 3 == 0) absent.push_back(NodeId{n});
    if (!absent.empty()) absent.push_back(absent.front());  // a duplicate
    absent.push_back(NodeId{kNodes + 7});  // absent, and never in an event
    const ChurnTimeline tl(events, absent);

    // Every known node, plus ids the timeline never mentions: the id just
    // past the largest event id (where the per-node offset tables end)
    // and ids further out.
    std::uint64_t past_events = 0;
    for (const ChurnEvent& e : events)
      past_events = std::max(past_events, e.node.value + 1);
    std::vector<NodeId> probes;
    for (std::uint64_t n = 0; n < kNodes; ++n) probes.push_back(NodeId{n});
    probes.push_back(NodeId{past_events});
    probes.push_back(NodeId{kNodes + 7});
    probes.push_back(NodeId{kNodes + 100});
    probes.push_back(NodeId::invalid());
    for (const NodeId node : probes) {
      for (int q = 0; q < 60; ++q) {
        const Seconds t = grid_time(rng);
        ASSERT_EQ(tl.is_member(node, t), scan_is_member(tl, node, t))
            << "node " << node.value << " t " << t.value;
        const Seconds from = grid_time(rng);
        const Seconds to = grid_time(rng);
        ASSERT_EQ(tl.crashed_during(node, from, to),
                  scan_crashed_during(tl, node, from, to))
            << "node " << node.value << " (" << from.value << ", "
            << to.value << "]";
      }
      // Before every event and after the last one.
      ASSERT_EQ(tl.is_member(node, Seconds{-1.0}), tl.initially_member(node));
      ASSERT_EQ(tl.is_member(node, Seconds{100.0}),
                scan_is_member(tl, node, Seconds{100.0}));
    }
  }
}

TEST(ChurnTimelineIndex, EmptyTimelineAnswersFromTheInitialState) {
  const ChurnTimeline none;
  const ChurnTimeline absent_only({}, {NodeId{2}, NodeId{9}});
  for (const NodeId node :
       {NodeId{0}, NodeId{2}, NodeId{9}, NodeId{1000}, NodeId::invalid()}) {
    for (const double t : {-1.0, 0.0, 5.0, 1e9}) {
      EXPECT_TRUE(none.is_member(node, Seconds{t}));
      EXPECT_EQ(absent_only.is_member(node, Seconds{t}),
                node != NodeId{2} && node != NodeId{9});
      EXPECT_FALSE(none.crashed_during(node, Seconds{-1.0}, Seconds{t}));
      EXPECT_FALSE(absent_only.crashed_during(node, Seconds{-1.0}, Seconds{t}));
    }
  }
}

TEST(ChurnTimelineIndex, RejectsEventIdsOutsideTheDenseRange) {
  // The per-node offset tables are dense in node ids up to the largest
  // event id, so an invalid or huge id is rejected instead of sizing them.
  for (const NodeId bad : {NodeId::invalid(), NodeId{kMaxDenseNodeId},
                           NodeId{std::uint64_t{1} << 40}}) {
    SCOPED_TRACE(bad.value);
    EXPECT_THROW(ChurnTimeline({{Seconds{1.0}, ChurnEventKind::Crash, bad}}),
                 std::invalid_argument);
  }
}

TEST(ChurnTimelineIndex, LastOfEqualTimeEventsWins) {
  // Same node, same instant: the later-listed event decides, as a scan in
  // list order would.
  const ChurnTimeline tl({{Seconds{5.0}, ChurnEventKind::Crash, NodeId{1}},
                          {Seconds{5.0}, ChurnEventKind::Rejoin, NodeId{1}},
                          {Seconds{5.0}, ChurnEventKind::Leave, NodeId{2}},
                          {Seconds{5.0}, ChurnEventKind::Join, NodeId{2}},
                          {Seconds{5.0}, ChurnEventKind::Leave, NodeId{2}}});
  EXPECT_TRUE(tl.is_member(NodeId{1}, Seconds{5.0}));
  EXPECT_FALSE(tl.is_member(NodeId{2}, Seconds{5.0}));
  EXPECT_TRUE(tl.crashed_during(NodeId{1}, Seconds{4.5}, Seconds{5.0}));
  EXPECT_FALSE(tl.crashed_during(NodeId{1}, Seconds{5.0}, Seconds{9.0}));
  EXPECT_FALSE(tl.crashed_during(NodeId{2}, Seconds{0.0}, Seconds{9.0}));
}

}  // namespace
}  // namespace grasp::gridsim
