#include "gridsim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "support/rng.hpp"

namespace grasp::gridsim {
namespace {

using Queue = EventQueue<int>;

// Pop every pending payload, in delivery order.
std::vector<int> drain(Queue& q) {
  std::vector<int> out;
  while (const auto p = q.pop()) out.push_back(*p);
  return out;
}

TEST(EventQueue, ExecutesInTimeOrder) {
  Queue q;
  q.push(Seconds{3.0}, 3);
  q.push(Seconds{1.0}, 1);
  q.push(Seconds{2.0}, 2);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_DOUBLE_EQ(q.now().value, 1.0);
  EXPECT_EQ(drain(q), (std::vector<int>{2, 3}));
  EXPECT_DOUBLE_EQ(q.now().value, 3.0);
}

TEST(EventQueue, TiesAreFifo) {
  Queue q;
  for (int i = 0; i < 5; ++i) q.push(Seconds{1.0}, i);
  EXPECT_EQ(drain(q), (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, RejectsPastAndNegative) {
  Queue q;
  EXPECT_THROW(q.push(Seconds{-1.0}, 0), std::invalid_argument);
  q.push(Seconds{5.0}, 0);
  (void)q.pop();
  EXPECT_THROW(q.push(Seconds{4.0}, 0), std::invalid_argument);
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.now().value, 5.0);
}

TEST(EventQueue, RejectsNaNButAcceptsInfinity) {
  // NaN compares false both ways, so it would otherwise slip past a
  // `when < now` test and sort by its bit pattern.  +inf is legitimate:
  // an operation stranded on a dead node completes "never".
  Queue q;
  EXPECT_THROW(q.push(Seconds{std::nan("")}, 0), std::invalid_argument);
  EXPECT_TRUE(q.empty());
  q.push(Seconds{std::numeric_limits<double>::infinity()}, 2);
  q.push(Seconds{1.0}, 1);
  EXPECT_EQ(drain(q), (std::vector<int>{1, 2}));
  EXPECT_TRUE(std::isinf(q.now().value));
}

TEST(EventQueue, PopOnEmptyReturnsNullopt) {
  Queue q;
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_TRUE(q.empty());
  EXPECT_DOUBLE_EQ(q.now().value, 0.0);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime) {
  // The consumer schedules relative to the clock its pop left behind.
  Queue q;
  q.push(Seconds{2.0}, 1);
  EXPECT_EQ(q.pop(), 1);
  q.push(q.now() + Seconds{0.5}, 2);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_DOUBLE_EQ(q.now().value, 2.5);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  // Handling each popped event pushes the next one, a second later.
  Queue q;
  q.push(Seconds{0.0}, 0);
  int popped = 0;
  while (const auto p = q.pop()) {
    EXPECT_EQ(*p, popped);
    if (++popped < 10) q.push(q.now() + Seconds{1.0}, popped);
  }
  EXPECT_EQ(popped, 10);
  EXPECT_DOUBLE_EQ(q.now().value, 9.0);
}

TEST(EventQueue, CancelledEventNeitherRunsNorAdvancesTheClock) {
  Queue q;
  const auto id = q.push(Seconds{5.0}, 7);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // already cancelled
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_DOUBLE_EQ(q.now().value, 0.0);
}

TEST(EventQueue, CancelledEntryBelowTopIsSkippedLazily) {
  Queue q;
  q.push(Seconds{1.0}, 1);
  const auto id = q.push(Seconds{2.0}, 2);
  q.push(Seconds{3.0}, 3);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.pending(), 2u);
  EXPECT_EQ(drain(q), (std::vector<int>{1, 3}));
  EXPECT_DOUBLE_EQ(q.now().value, 3.0);
}

TEST(EventQueue, CancelAfterEventFiredReturnsFalse) {
  Queue q;
  const auto id = q.push(Seconds{1.0}, 1);
  EXPECT_EQ(q.pop(), 1);
  // The event already popped: cancel must decline and change nothing.
  EXPECT_FALSE(q.cancel(id));
  EXPECT_DOUBLE_EQ(q.now().value, 1.0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DoubleCancelSecondCallIsHarmless) {
  Queue q;
  const auto id = q.push(Seconds{1.0}, 1);
  q.push(Seconds{2.0}, 2);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // idempotent, no tombstone corruption
  EXPECT_EQ(drain(q), (std::vector<int>{2}));
  EXPECT_DOUBLE_EQ(q.now().value, 2.0);
}

TEST(EventQueue, CancelFromWithinAHandler) {
  // Handling a popped event cancels a later pending one: it must neither
  // pop nor advance the clock, and the queue keeps popping past it cleanly.
  Queue q;
  q.push(Seconds{1.0}, 1);
  const auto victim = q.push(Seconds{2.0}, 2);
  q.push(Seconds{3.0}, 3);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_TRUE(q.cancel(victim));
  EXPECT_FALSE(q.cancel(victim));  // double cancel while handling
  EXPECT_EQ(drain(q), (std::vector<int>{3}));
  EXPECT_DOUBLE_EQ(q.now().value, 3.0);
}

TEST(EventQueue, HandlerCancellingItselfReturnsFalse) {
  // Once popped, an event has left the pending set: cancelling it while
  // handling it is a no-op that reports false, and rescheduling still works.
  Queue q;
  const auto self = q.push(Seconds{1.0}, 1);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_FALSE(q.cancel(self));
  q.push(q.now() + Seconds{1.0}, 2);
  EXPECT_EQ(drain(q), (std::vector<int>{2}));
  EXPECT_DOUBLE_EQ(q.now().value, 2.0);
}

TEST(EventQueue, CancelTieBreaksOnlyTheNamedEvent) {
  // Three events share one timestamp; cancelling the middle one must not
  // disturb FIFO order of the survivors (tombstone pruning is by id).
  Queue q;
  q.push(Seconds{1.0}, 0);
  const auto id = q.push(Seconds{1.0}, 1);
  q.push(Seconds{1.0}, 2);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(drain(q), (std::vector<int>{0, 2}));
}

TEST(EventQueue, BatchInterleavedWithCancelKeepsFifoOrder) {
  // SimBackend pushes a dispatch wave as consecutive pushes at one instant;
  // cancels inside a wave must not disturb the survivors' order, and a
  // second wave at the same timestamp lands behind the first.
  Queue q;
  std::vector<Queue::EventId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(q.push(Seconds{1.0}, i));
  EXPECT_EQ(q.pending(), 6u);
  EXPECT_TRUE(q.cancel(ids[1]));
  EXPECT_TRUE(q.cancel(ids[4]));
  std::vector<Queue::EventId> second;
  for (int i = 6; i < 9; ++i) second.push_back(q.push(Seconds{1.0}, i));
  EXPECT_TRUE(q.cancel(second[0]));
  EXPECT_EQ(drain(q), (std::vector<int>{0, 2, 3, 5, 7, 8}));
}

TEST(EventQueue, FindSeesOnlyPendingEvents) {
  Queue q;
  const auto popped = q.push(Seconds{1.0}, 10);
  const auto cancelled = q.push(Seconds{2.0}, 20);
  const auto kept = q.push(Seconds{3.0}, 30);
  ASSERT_NE(q.find(cancelled), nullptr);
  EXPECT_EQ(*q.find(cancelled), 20);
  EXPECT_TRUE(q.cancel(cancelled));
  EXPECT_EQ(q.find(cancelled), nullptr);
  EXPECT_EQ(q.pop(), 10);
  EXPECT_EQ(q.find(popped), nullptr);
  ASSERT_NE(q.find(kept), nullptr);
  EXPECT_EQ(*q.find(kept), 30);
  EXPECT_EQ(q.find(Queue::EventId{0}), nullptr);  // never issued
}

TEST(EventQueue, RecycledSlotsInvalidateStaleIds) {
  // Generation stamping: once a cancelled event's slot is reclaimed and
  // handed to a new event, the old handle must neither cancel nor find the
  // new tenant.
  Queue q;
  std::vector<Queue::EventId> stale;
  for (int i = 0; i < 8; ++i) stale.push_back(q.push(Seconds{1.0}, i));
  for (const auto id : stale) EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.pop().has_value());

  for (int i = 0; i < 8; ++i) (void)q.push(Seconds{2.0}, 100 + i);
  for (const auto id : stale) {
    EXPECT_EQ(q.find(id), nullptr);  // stale generation
    EXPECT_FALSE(q.cancel(id));
  }
  EXPECT_EQ(drain(q).size(), 8u);
}

TEST(EventQueue, SeededCancelHeavyStressMatchesReferenceModel) {
  // Random interleaving of pushes (with deliberate timestamp ties), cancels
  // and pops, checked against a brute-force reference: survivors must pop
  // exactly once, in (timestamp, insertion) order.
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    Queue q;
    struct Ref {
      double when;
      int label;
      Queue::EventId id;
      bool cancelled = false;
    };
    std::vector<Ref> refs;
    std::vector<int> fired;
    int next_label = 0;
    for (int round = 0; round < 30; ++round) {
      const auto burst = 1 + rng.uniform_index(6);
      for (std::uint64_t i = 0; i < burst; ++i) {
        // Quantise to half-seconds so equal timestamps are common.
        double when =
            std::floor((q.now().value + rng.uniform(0.0, 6.0)) * 2.0) / 2.0;
        if (when < q.now().value) when = q.now().value;
        const int label = next_label++;
        refs.push_back({when, label, q.push(Seconds{when}, label), false});
      }
      const auto cancels = rng.uniform_index(4);
      for (std::uint64_t c = 0; c < cancels; ++c) {
        Ref& victim = refs[rng.uniform_index(refs.size())];
        // The queue's verdict is authoritative: cancel succeeds iff the
        // event is still pending, and says so.
        if (q.cancel(victim.id)) victim.cancelled = true;
      }
      const auto pops = rng.uniform_index(4);
      for (std::uint64_t s = 0; s < pops; ++s)
        if (const auto p = q.pop()) fired.push_back(*p);
    }
    for (const int label : drain(q)) fired.push_back(label);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pending(), 0u);

    std::vector<Ref> expected(refs);
    expected.erase(std::remove_if(expected.begin(), expected.end(),
                                  [](const Ref& r) { return r.cancelled; }),
                   expected.end());
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Ref& a, const Ref& b) { return a.when < b.when; });
    std::vector<int> expected_labels;
    for (const Ref& r : expected) expected_labels.push_back(r.label);
    EXPECT_EQ(fired, expected_labels) << "seed " << seed;

    // Every handle — popped or cancelled — is now stale.
    for (const Ref& r : refs) {
      EXPECT_FALSE(q.cancel(r.id));
      EXPECT_EQ(q.find(r.id), nullptr);
    }
  }
}

}  // namespace
}  // namespace grasp::gridsim
