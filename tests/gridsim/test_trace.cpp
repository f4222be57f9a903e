#include "gridsim/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <random>
#include <stdexcept>
#include <vector>

namespace grasp::gridsim {
namespace {

TraceEvent ev(double at, TraceEventKind kind, std::uint64_t node = 0,
              std::uint64_t task = 0) {
  return TraceEvent{Seconds{at}, kind, NodeId{node}, TaskId{task}, 0.0, ""};
}

TEST(Trace, CountsByKind) {
  TraceRecorder tr;
  tr.record(ev(0.0, TraceEventKind::TaskDispatched));
  tr.record(ev(1.0, TraceEventKind::TaskCompleted));
  tr.record(ev(2.0, TraceEventKind::TaskCompleted));
  EXPECT_EQ(tr.count(TraceEventKind::TaskCompleted), 2u);
  EXPECT_EQ(tr.count(TraceEventKind::TaskDispatched), 1u);
  EXPECT_EQ(tr.count(TraceEventKind::NodeSwapped), 0u);
  EXPECT_EQ(tr.events().size(), 3u);
}

TEST(Trace, ThroughputSeriesBucketsCompletions) {
  TraceRecorder tr;
  tr.record(ev(0.5, TraceEventKind::TaskCompleted, 0, 1));
  tr.record(ev(1.5, TraceEventKind::TaskCompleted, 0, 2));
  tr.record(ev(1.7, TraceEventKind::ItemCompleted, 0, 3));
  tr.record(ev(9.0, TraceEventKind::TaskDispatched, 0, 4));  // not counted
  const auto series = tr.throughput_series(Seconds{1.0}, Seconds{3.0});
  ASSERT_EQ(series.size(), 3u);
  EXPECT_DOUBLE_EQ(series[0], 1.0);
  EXPECT_DOUBLE_EQ(series[1], 2.0);
  EXPECT_DOUBLE_EQ(series[2], 0.0);
}

TEST(Trace, ThroughputClampsLateEventsIntoLastBucket) {
  TraceRecorder tr;
  tr.record(ev(99.0, TraceEventKind::TaskCompleted, 0, 1));
  const auto series = tr.throughput_series(Seconds{1.0}, Seconds{2.0});
  ASSERT_EQ(series.size(), 2u);
  EXPECT_DOUBLE_EQ(series[1], 1.0);
}

TEST(Trace, NodeBusyFractionPairsDispatchAndComplete) {
  TraceRecorder tr;
  tr.record(ev(0.0, TraceEventKind::TaskDispatched, 0, 1));
  tr.record(ev(4.0, TraceEventKind::TaskCompleted, 0, 1));
  tr.record(ev(2.0, TraceEventKind::TaskDispatched, 1, 2));
  tr.record(ev(3.0, TraceEventKind::TaskCompleted, 1, 2));
  const auto busy = tr.node_busy_fraction(2, Seconds{10.0});
  ASSERT_EQ(busy.size(), 2u);
  EXPECT_DOUBLE_EQ(busy[0], 0.4);
  EXPECT_DOUBLE_EQ(busy[1], 0.1);
}

TEST(Trace, AdaptationTimesCollectsActionEvents) {
  TraceRecorder tr;
  tr.record(ev(1.0, TraceEventKind::RecalibrationTriggered));
  tr.record(ev(2.0, TraceEventKind::TaskCompleted));
  tr.record(ev(3.0, TraceEventKind::NodeSwapped));
  tr.record(ev(4.0, TraceEventKind::StageRemapped));
  tr.record(ev(5.0, TraceEventKind::ChunkResized));
  const auto times = tr.adaptation_times();
  ASSERT_EQ(times.size(), 4u);
  EXPECT_DOUBLE_EQ(times[0].value, 1.0);
  EXPECT_DOUBLE_EQ(times[3].value, 5.0);
}

TEST(Trace, KindNamesAreStable) {
  EXPECT_STREQ(to_string(TraceEventKind::TaskCompleted), "task_completed");
  EXPECT_STREQ(to_string(TraceEventKind::RecalibrationTriggered),
               "recalibration_triggered");
  EXPECT_STREQ(to_string(TraceEventKind::ItemCompleted), "item_completed");
}

TEST(Trace, ClearEmpties) {
  TraceRecorder tr;
  tr.record(ev(0.0, TraceEventKind::TaskCompleted));
  tr.clear();
  EXPECT_TRUE(tr.events().empty());
  EXPECT_EQ(tr.count(TraceEventKind::TaskCompleted), 0u);
}

// Regression for the O(n) count() rescans: the per-kind counters must agree
// with a manual pass over events() for every kind, after an arbitrary mix of
// records, and reset together with the event vector on clear().
TEST(Trace, PerKindCountersMatchManualScan) {
  std::mt19937 rng(7);
  std::uniform_int_distribution<std::size_t> pick(0,
                                                  kTraceEventKindCount - 1);
  TraceRecorder tr;
  auto verify_all_kinds = [&] {
    for (std::size_t k = 0; k < kTraceEventKindCount; ++k) {
      const auto kind = static_cast<TraceEventKind>(k);
      const auto scanned = static_cast<std::size_t>(std::count_if(
          tr.events().begin(), tr.events().end(),
          [&](const TraceEvent& e) { return e.kind == kind; }));
      EXPECT_EQ(tr.count(kind), scanned) << "kind " << to_string(kind);
    }
  };

  for (std::size_t i = 0; i < 5000; ++i)
    tr.record(ev(static_cast<double>(i),
                 static_cast<TraceEventKind>(pick(rng)), i % 16, i));
  verify_all_kinds();

  tr.clear();
  verify_all_kinds();  // all zero again
  tr.record(ev(0.0, TraceEventKind::FarmerPromoted));
  EXPECT_EQ(tr.count(TraceEventKind::FarmerPromoted), 1u);
  verify_all_kinds();
}

TEST(Trace, CountOnlyCountsWithoutStoring) {
  TraceRecorder tr;
  tr.record(ev(0.0, TraceEventKind::CalibrationStarted));
  tr.count_only(TraceEventKind::TaskCompleted);
  tr.count_only(TraceEventKind::TaskCompleted);
  EXPECT_EQ(tr.count(TraceEventKind::TaskCompleted), 2u);
  EXPECT_EQ(tr.count(TraceEventKind::CalibrationStarted), 1u);
  ASSERT_EQ(tr.events().size(), 1u);
  EXPECT_EQ(tr.events()[0].kind, TraceEventKind::CalibrationStarted);
  EXPECT_FALSE(tr.all_stored(TraceEventKind::TaskCompleted));
  EXPECT_TRUE(tr.all_stored(TraceEventKind::CalibrationStarted));
  EXPECT_TRUE(tr.all_stored(TraceEventKind::TaskDispatched));
  tr.clear();
  EXPECT_TRUE(tr.all_stored(TraceEventKind::TaskCompleted));
}

// Series over records that were only counted would read zeros; they throw.
TEST(Trace, ThroughputSeriesThrowsWhenCompletionsWereNotStored) {
  for (const TraceEventKind k :
       {TraceEventKind::TaskCompleted, TraceEventKind::ItemCompleted}) {
    TraceRecorder tr;
    tr.record(ev(0.5, TraceEventKind::TaskCompleted, 0, 1));
    tr.count_only(k);
    EXPECT_THROW((void)tr.throughput_series(Seconds{1.0}, Seconds{3.0}),
                 std::logic_error)
        << to_string(k);
  }
  // Unstored dispatches do not enter the series.
  TraceRecorder tr;
  tr.record(ev(0.5, TraceEventKind::TaskCompleted, 0, 1));
  tr.count_only(TraceEventKind::TaskDispatched);
  EXPECT_EQ(tr.throughput_series(Seconds{1.0}, Seconds{1.0}),
            std::vector<double>{1.0});
}

TEST(Trace, NodeBusyFractionThrowsWhenDispatchesOrCompletionsWereNotStored) {
  for (const TraceEventKind k :
       {TraceEventKind::TaskDispatched, TraceEventKind::TaskCompleted}) {
    TraceRecorder tr;
    tr.record(ev(0.0, TraceEventKind::TaskDispatched, 0, 1));
    tr.record(ev(4.0, TraceEventKind::TaskCompleted, 0, 1));
    tr.count_only(k);
    EXPECT_THROW((void)tr.node_busy_fraction(1, Seconds{10.0}),
                 std::logic_error)
        << to_string(k);
  }
}

}  // namespace
}  // namespace grasp::gridsim
