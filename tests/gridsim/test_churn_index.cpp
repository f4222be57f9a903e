// Property tests of ChurnTimeline's per-node index: on seeded random
// timelines, is_member, crashed_during and next_change answer exactly as a
// linear scan of the time-sorted event list does, and a LivenessCursor
// driven along a clock answers exactly as the timeline does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
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

Seconds scan_next_change(const ChurnTimeline& tl, NodeId node, Seconds t) {
  for (const ChurnEvent& e : tl.events())
    if (e.at > t && e.node == node) return e.at;
  return Seconds{std::numeric_limits<double>::infinity()};
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
      const Seconds t = grid_time(rng);
      ASSERT_EQ(tl.next_change(node, t), scan_next_change(tl, node, t))
          << "node " << node.value << " t " << t.value;
      // Before every event and after the last one.
      ASSERT_EQ(tl.is_member(node, Seconds{-1.0}), tl.initially_member(node));
      ASSERT_EQ(tl.is_member(node, Seconds{100.0}),
                scan_is_member(tl, node, Seconds{100.0}));
    }
    for (int q = 0; q < 60; ++q) {
      const Seconds t = grid_time(rng);
      Seconds next{std::numeric_limits<double>::infinity()};
      std::size_t between = 0;  // events in (t, t + 3]
      for (const ChurnEvent& e : tl.events()) {
        if (e.at > t && next.value == std::numeric_limits<double>::infinity())
          next = e.at;
        if (e.at > t && e.at <= t + Seconds{3.0}) ++between;
      }
      ASSERT_EQ(tl.next_event_after(t), next) << "t " << t.value;
      ASSERT_EQ(tl.events_between(t, t + Seconds{3.0}).size(), between)
          << "t " << t.value;
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
      EXPECT_EQ(none.next_event_after(Seconds{t}).value,
                std::numeric_limits<double>::infinity());
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

/// Seeded random timelines (every event kind, equal-time events for one
/// node and across nodes, initially absent nodes) queried through a
/// cursor along a clock that mostly moves forward on the event grid, so
/// queries land exactly on event times, with now and then a query before
/// the cursor: every answer equals the timeline's own.
TEST(LivenessCursor, AnswersMatchTheTimelineAlongAClock) {
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
    // Two events for one node at one instant, in both orders.
    const Seconds twice = grid_time(rng);
    events.push_back({twice, ChurnEventKind::Crash, NodeId{0}});
    events.push_back({twice, ChurnEventKind::Rejoin, NodeId{0}});
    events.push_back({twice, ChurnEventKind::Join, NodeId{1}});
    events.push_back({twice, ChurnEventKind::Crash, NodeId{1}});
    std::vector<NodeId> absent;
    for (std::uint64_t n = 0; n < kNodes; ++n)
      if (rng.next() % 3 == 0) absent.push_back(NodeId{n});
    absent.push_back(NodeId{kNodes + 7});  // absent, and never in an event
    const ChurnTimeline tl(events, absent);

    std::vector<NodeId> probes;
    for (std::uint64_t n = 0; n < kNodes; ++n) probes.push_back(NodeId{n});
    probes.push_back(NodeId{kNodes + 7});
    probes.push_back(NodeId{kNodes + 100});
    probes.push_back(NodeId::invalid());

    LivenessCursor cursor(tl);
    double clock = -1.0;
    for (int step = 0; step < 400; ++step) {
      Seconds now{clock};
      if (rng.next() % 10 == 0) {
        now = Seconds{clock - 0.5 * static_cast<double>(rng.next() % 8)};
      } else {
        clock += 0.5 * static_cast<double>(rng.next() % 3);  // may stay put
        now = Seconds{clock};
      }
      const NodeId node = probes[rng.next() % probes.size()];
      const Seconds from = Seconds{now.value - 0.5 * static_cast<double>(
                                                   rng.next() % 12)};
      ASSERT_EQ(cursor.is_member(node, now), tl.is_member(node, now))
          << "step " << step << " node " << node.value << " t "
          << now.value;
      ASSERT_EQ(cursor.crashed_during(node, from, now),
                tl.crashed_during(node, from, now))
          << "step " << step << " node " << node.value << " ("
          << from.value << ", " << now.value << "]";
    }
  }
}

TEST(LivenessCursor, AppliedCountsTheEventsAtOrBeforeTheClock) {
  const ChurnTimeline tl({{Seconds{1.0}, ChurnEventKind::Crash, NodeId{0}},
                          {Seconds{2.0}, ChurnEventKind::Rejoin, NodeId{0}},
                          {Seconds{2.0}, ChurnEventKind::Leave, NodeId{1}}});
  LivenessCursor cursor(tl);
  EXPECT_EQ(cursor.applied(), 0u);
  cursor.advance_to(Seconds{1.0});
  EXPECT_EQ(cursor.applied(), 1u);
  EXPECT_FALSE(cursor.is_member(NodeId{0}, Seconds{1.5}));
  cursor.advance_to(Seconds{0.5});  // before the cursor: stays put
  EXPECT_EQ(cursor.applied(), 1u);
  EXPECT_TRUE(cursor.is_member(NodeId{0}, Seconds{0.5}));  // the timeline's
  cursor.advance_to(Seconds{std::numeric_limits<double>::quiet_NaN()});
  EXPECT_EQ(cursor.applied(), 1u);
  cursor.advance_to(Seconds{2.0});
  EXPECT_EQ(cursor.applied(), 3u);
  EXPECT_TRUE(cursor.is_member(NodeId{0}, Seconds{2.0}));
  EXPECT_FALSE(cursor.is_member(NodeId{1}, Seconds{2.0}));
  EXPECT_TRUE(cursor.crashed_during(NodeId{0}, Seconds{0.0}, Seconds{2.0}));
  EXPECT_FALSE(cursor.crashed_during(NodeId{0}, Seconds{1.0}, Seconds{2.0}));
}

}  // namespace
}  // namespace grasp::gridsim
