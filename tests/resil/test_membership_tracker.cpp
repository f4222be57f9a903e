// MembershipTracker on its liveness cursor: polls report exactly the pool's
// events in (previous poll, now], whatever the cursor was asked in between.
#include "resil/membership.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace grasp::resil {
namespace {

using gridsim::ChurnEvent;
using gridsim::ChurnEventKind;

TEST(MembershipTracker, PollReportsWhatTheCursorCrossedSinceTheLastPoll) {
  const gridsim::ChurnTimeline timeline(
      {{Seconds{0.0}, ChurnEventKind::Leave, NodeId{1}},
       {Seconds{2.0}, ChurnEventKind::Crash, NodeId{0}},
       {Seconds{3.0}, ChurnEventKind::Crash, NodeId{9}},  // outside the pool
       {Seconds{4.0}, ChurnEventKind::Join, NodeId{2}},
       {Seconds{6.0}, ChurnEventKind::Rejoin, NodeId{0}}},
      {NodeId{2}});
  MembershipTracker tracker(timeline, {NodeId{0}, NodeId{1}, NodeId{2}});
  // The initial view is the t=0 state; its t=0 event is still reported.
  EXPECT_TRUE(tracker.is_member(NodeId{0}));
  EXPECT_FALSE(tracker.is_member(NodeId{1}));
  EXPECT_FALSE(tracker.is_member(NodeId{2}));
  EXPECT_FALSE(tracker.is_member(NodeId{9}));  // never tracked
  auto events = tracker.poll(Seconds{1.0});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].node, NodeId{1});

  // Ground-truth reads move the cursor to t=5; the view waits for a poll.
  EXPECT_FALSE(tracker.live().is_member(NodeId{0}, Seconds{5.0}));
  EXPECT_TRUE(tracker.live().is_member(NodeId{2}, Seconds{5.0}));
  EXPECT_TRUE(tracker.is_member(NodeId{0}));
  EXPECT_FALSE(tracker.is_member(NodeId{2}));

  // A poll behind the cursor reports only up to its own clock.
  events = tracker.poll(Seconds{3.0});
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].node, NodeId{0});
  EXPECT_FALSE(tracker.is_member(NodeId{0}));
  events = tracker.poll(Seconds{6.0});
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, ChurnEventKind::Join);
  EXPECT_EQ(events[1].kind, ChurnEventKind::Rejoin);
  EXPECT_TRUE(tracker.is_member(NodeId{0}));
  EXPECT_TRUE(tracker.is_member(NodeId{2}));
  EXPECT_TRUE(tracker.poll(Seconds{60.0}).empty());
}

}  // namespace
}  // namespace grasp::resil
