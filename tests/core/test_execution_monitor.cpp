#include "core/execution_monitor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "support/rng.hpp"

namespace grasp::core {
namespace {

std::vector<NodeId> nodes(std::size_t n) {
  std::vector<NodeId> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(NodeId{i});
  return out;
}

ThresholdPolicy relative_min(double z) {
  ThresholdPolicy p;
  p.kind = ThresholdPolicy::Kind::RelativeMin;
  p.z = z;
  return p;
}

TEST(ExecutionMonitor, NoVerdictUntilRoundCompletes) {
  ExecutionMonitor mon(task_farm_traits(), relative_min(2.0));
  mon.arm(1.0, nodes(3), Seconds{0.0});
  mon.observe(NodeId{0}, 10.0, Seconds{1.0});
  mon.observe(NodeId{1}, 10.0, Seconds{1.0});
  // Node 2 has not reported: round incomplete, no verdict even though the
  // reported times are far above threshold.
  EXPECT_EQ(mon.check(Seconds{1.0}), MonitorVerdict::None);
  EXPECT_EQ(mon.rounds_completed(), 0u);
}

TEST(ExecutionMonitor, MinSemanticsPaperLiteral) {
  // Algorithm 2: trigger only when even the *fastest* node breaches Z.
  ExecutionMonitor mon(task_farm_traits(), relative_min(2.0));
  mon.arm(1.0, nodes(2), Seconds{0.0});
  // One node slow, one fast: min = 0.5 <= 2.0 -> no trigger.
  mon.observe(NodeId{0}, 100.0, Seconds{1.0});
  mon.observe(NodeId{1}, 0.5, Seconds{1.0});
  EXPECT_EQ(mon.check(Seconds{1.0}), MonitorVerdict::None);
  EXPECT_EQ(mon.rounds_completed(), 1u);
  // Both slow: min = 3.0 > 2.0 -> trigger.
  mon.observe(NodeId{0}, 5.0, Seconds{2.0});
  mon.observe(NodeId{1}, 3.0, Seconds{2.0});
  EXPECT_EQ(mon.check(Seconds{2.0}), MonitorVerdict::ThresholdExceeded);
  EXPECT_EQ(mon.triggers(), 1u);
}

TEST(ExecutionMonitor, AbsoluteThresholdIgnoresBaseline) {
  ThresholdPolicy p;
  p.kind = ThresholdPolicy::Kind::AbsoluteMin;
  p.z = 0.75;
  ExecutionMonitor mon(task_farm_traits(), p);
  mon.arm(1000.0, nodes(1), Seconds{0.0});  // huge baseline, irrelevant
  EXPECT_DOUBLE_EQ(mon.threshold_spm(), 0.75);
  mon.observe(NodeId{0}, 0.8, Seconds{1.0});
  EXPECT_EQ(mon.check(Seconds{1.0}), MonitorVerdict::ThresholdExceeded);
}

TEST(ExecutionMonitor, RelativeMeanSemantics) {
  ThresholdPolicy p;
  p.kind = ThresholdPolicy::Kind::RelativeMean;
  p.z = 2.0;
  ExecutionMonitor mon(task_farm_traits(), p);
  mon.arm(1.0, nodes(2), Seconds{0.0});
  // mean = (0.5 + 4.5)/2 = 2.5 > 2.0 -> trigger (min would not).
  mon.observe(NodeId{0}, 0.5, Seconds{1.0});
  mon.observe(NodeId{1}, 4.5, Seconds{1.0});
  EXPECT_EQ(mon.check(Seconds{1.0}), MonitorVerdict::ThresholdExceeded);
}

TEST(ExecutionMonitor, RelativeMaxSemantics) {
  ThresholdPolicy p;
  p.kind = ThresholdPolicy::Kind::RelativeMax;
  p.z = 2.0;
  ExecutionMonitor mon(pipeline_traits(), p);
  mon.arm(1.0, nodes(3), Seconds{0.0});
  // One bottleneck (3.0 > 2.0) triggers even though the others are fine.
  mon.observe(NodeId{0}, 0.9, Seconds{1.0});
  mon.observe(NodeId{1}, 1.0, Seconds{1.0});
  mon.observe(NodeId{2}, 3.0, Seconds{1.0});
  EXPECT_EQ(mon.check(Seconds{1.0}), MonitorVerdict::ThresholdExceeded);
}

TEST(ExecutionMonitor, LatestObservationPerNodeWinsWithinRound) {
  ExecutionMonitor mon(task_farm_traits(), relative_min(2.0));
  mon.arm(1.0, nodes(1), Seconds{0.0});
  mon.observe(NodeId{0}, 50.0, Seconds{0.5});
  mon.observe(NodeId{0}, 0.5, Seconds{0.9});  // recovered within the round
  EXPECT_EQ(mon.check(Seconds{1.0}), MonitorVerdict::None);
}

TEST(ExecutionMonitor, StaleRoundTriggersWhenEnabled) {
  ThresholdPolicy p = relative_min(2.0);
  p.stale_after = 10.0;
  ExecutionMonitor mon(task_farm_traits(), p);
  mon.arm(1.0, nodes(2), Seconds{0.0});
  mon.observe(NodeId{0}, 1.0, Seconds{1.0});
  // Node 1 silent; before the window: no verdict.
  EXPECT_EQ(mon.check(Seconds{5.0}), MonitorVerdict::None);
  // After the window: stale.
  EXPECT_EQ(mon.check(Seconds{11.0}), MonitorVerdict::RoundStale);
  EXPECT_EQ(mon.triggers(), 1u);
}

TEST(ExecutionMonitor, StaleDisabledByDefault) {
  ExecutionMonitor mon(task_farm_traits(), relative_min(2.0));
  mon.arm(1.0, nodes(2), Seconds{0.0});
  mon.observe(NodeId{0}, 1.0, Seconds{1.0});
  EXPECT_EQ(mon.check(Seconds{1e6}), MonitorVerdict::None);
}

TEST(ExecutionMonitor, RearmResetsRoundsAndBaseline) {
  ExecutionMonitor mon(task_farm_traits(), relative_min(2.0));
  mon.arm(1.0, nodes(1), Seconds{0.0});
  mon.observe(NodeId{0}, 10.0, Seconds{1.0});
  EXPECT_EQ(mon.check(Seconds{1.0}), MonitorVerdict::ThresholdExceeded);
  mon.arm(10.0, nodes(1), Seconds{2.0});
  EXPECT_DOUBLE_EQ(mon.threshold_spm(), 20.0);
  mon.observe(NodeId{0}, 10.0, Seconds{3.0});
  EXPECT_EQ(mon.check(Seconds{3.0}), MonitorVerdict::None);
}

TEST(ExecutionMonitor, ValidationErrors) {
  ThresholdPolicy bad;
  bad.z = 0.0;
  EXPECT_THROW(ExecutionMonitor(task_farm_traits(), bad),
               std::invalid_argument);
  ExecutionMonitor mon(task_farm_traits(), relative_min(2.0));
  EXPECT_THROW(mon.arm(1.0, {}, Seconds{0.0}), std::invalid_argument);
}

TEST(ExecutionMonitor, RelativeMaxDoesNotRequireSynchronisedRounds) {
  // Regression test: a pipeline's upstream stage can drain and stop
  // reporting *within the current round*; the bottleneck statistic must
  // still fire off the latest observations.
  ThresholdPolicy p;
  p.kind = ThresholdPolicy::Kind::RelativeMax;
  p.z = 2.0;
  ExecutionMonitor mon(pipeline_traits(), p);
  mon.arm(1.0, nodes(3), Seconds{0.0});
  // Everyone reports once (healthy).
  mon.observe(NodeId{0}, 1.0, Seconds{1.0});
  mon.observe(NodeId{1}, 1.0, Seconds{1.0});
  mon.observe(NodeId{2}, 1.0, Seconds{1.0});
  EXPECT_EQ(mon.check(Seconds{1.0}), MonitorVerdict::None);
  // Node 0 (upstream stage) never reports again; node 2 degrades.
  mon.observe(NodeId{2}, 5.0, Seconds{10.0});
  EXPECT_EQ(mon.check(Seconds{10.0}), MonitorVerdict::ThresholdExceeded);
}

TEST(ExecutionMonitor, RelativeMaxStillWaitsForFirstReports) {
  ThresholdPolicy p;
  p.kind = ThresholdPolicy::Kind::RelativeMax;
  p.z = 2.0;
  ExecutionMonitor mon(pipeline_traits(), p);
  mon.arm(1.0, nodes(2), Seconds{0.0});
  mon.observe(NodeId{0}, 50.0, Seconds{1.0});
  // Node 1 has never reported: no verdict yet even with a huge max.
  EXPECT_EQ(mon.check(Seconds{1.0}), MonitorVerdict::None);
  mon.observe(NodeId{1}, 0.5, Seconds{2.0});
  EXPECT_EQ(mon.check(Seconds{2.0}), MonitorVerdict::ThresholdExceeded);
}

TEST(ExecutionMonitor, MinStatisticRobustToSingleNodeNoise) {
  // The property E3 documents: uncorrelated single-node spikes never raise
  // the round minimum, so tight thresholds do not over-trigger.
  ExecutionMonitor mon(task_farm_traits(), relative_min(1.2));
  mon.arm(1.0, nodes(4), Seconds{0.0});
  for (int round = 0; round < 20; ++round) {
    const auto t = Seconds{static_cast<double>(round + 1)};
    for (std::uint64_t n = 0; n < 4; ++n) {
      // One different node spikes 10x each round; the rest are nominal.
      const double spm = (n == static_cast<std::uint64_t>(round % 4)) ? 10.0 : 1.0;
      mon.observe(NodeId{n}, spm, t);
    }
    EXPECT_EQ(mon.check(t), MonitorVerdict::None) << "round " << round;
  }
  EXPECT_EQ(mon.triggers(), 0u);
}

// ---- Round completion: a per-node chosen flag and a count -------------
//
// check() used to decide completeness with an all_of over the chosen set
// on every call.  The cases below pin the count against that definition.

/// The all_of definition of "every chosen node has a number in `slots`".
bool all_chosen_reported(const std::vector<NodeId>& chosen,
                         const std::map<std::uint64_t, double>& slots) {
  return std::all_of(chosen.begin(), chosen.end(), [&](NodeId n) {
    const auto it = slots.find(n.value);
    return it != slots.end() && !std::isnan(it->second);
  });
}

TEST(ExecutionMonitor, NonChosenReportsDoNotCompleteARound) {
  ExecutionMonitor mon(task_farm_traits(), relative_min(2.0));
  mon.arm(1.0, nodes(2), Seconds{0.0});
  mon.observe(NodeId{5}, 1.0, Seconds{1.0});
  mon.observe(NodeId{6}, 1.0, Seconds{1.0});
  mon.observe(NodeId{0}, 1.0, Seconds{1.0});
  EXPECT_EQ(mon.check(Seconds{1.0}), MonitorVerdict::None);
  EXPECT_EQ(mon.rounds_completed(), 0u);
  mon.observe(NodeId{1}, 1.0, Seconds{2.0});
  EXPECT_EQ(mon.check(Seconds{2.0}), MonitorVerdict::None);
  EXPECT_EQ(mon.rounds_completed(), 1u);
}

TEST(ExecutionMonitor, RepeatedReportsFromOneNodeCountOnce) {
  ExecutionMonitor mon(task_farm_traits(), relative_min(2.0));
  mon.arm(1.0, nodes(3), Seconds{0.0});
  for (int i = 0; i < 3; ++i) mon.observe(NodeId{0}, 1.0, Seconds{1.0});
  mon.observe(NodeId{1}, 1.0, Seconds{1.0});
  EXPECT_EQ(mon.check(Seconds{1.0}), MonitorVerdict::None);
  EXPECT_EQ(mon.rounds_completed(), 0u);
  mon.observe(NodeId{2}, 1.0, Seconds{2.0});
  EXPECT_EQ(mon.check(Seconds{2.0}), MonitorVerdict::None);
  EXPECT_EQ(mon.rounds_completed(), 1u);
}

TEST(ExecutionMonitor, RearmWithASmallerOrDifferentChosenSet) {
  ExecutionMonitor mon(task_farm_traits(), relative_min(2.0));
  mon.arm(1.0, nodes(3), Seconds{0.0});
  mon.observe(NodeId{0}, 1.0, Seconds{1.0});
  mon.observe(NodeId{1}, 1.0, Seconds{1.0});
  // Smaller set: the re-arm opens a fresh round, so node 1's report from
  // the old round does not count.
  mon.arm(1.0, {NodeId{1}}, Seconds{2.0});
  EXPECT_EQ(mon.check(Seconds{2.0}), MonitorVerdict::None);
  EXPECT_EQ(mon.rounds_completed(), 0u);
  mon.observe(NodeId{1}, 1.0, Seconds{3.0});
  EXPECT_EQ(mon.check(Seconds{3.0}), MonitorVerdict::None);
  EXPECT_EQ(mon.rounds_completed(), 1u);
  // Different set: the old members no longer count.
  mon.arm(1.0, {NodeId{3}, NodeId{4}}, Seconds{4.0});
  for (std::uint64_t n = 0; n < 3; ++n)
    mon.observe(NodeId{n}, 1.0, Seconds{5.0});
  mon.observe(NodeId{3}, 1.0, Seconds{5.0});
  EXPECT_EQ(mon.check(Seconds{5.0}), MonitorVerdict::None);
  EXPECT_EQ(mon.rounds_completed(), 1u);
  mon.observe(NodeId{4}, 1.0, Seconds{6.0});
  EXPECT_EQ(mon.check(Seconds{6.0}), MonitorVerdict::None);
  EXPECT_EQ(mon.rounds_completed(), 2u);
  // A repeated member counts once.
  mon.arm(1.0, {NodeId{2}, NodeId{2}, NodeId{5}}, Seconds{7.0});
  mon.observe(NodeId{2}, 1.0, Seconds{8.0});
  EXPECT_EQ(mon.check(Seconds{8.0}), MonitorVerdict::None);
  EXPECT_EQ(mon.rounds_completed(), 2u);
  mon.observe(NodeId{5}, 1.0, Seconds{8.0});
  EXPECT_EQ(mon.check(Seconds{8.0}), MonitorVerdict::None);
  EXPECT_EQ(mon.rounds_completed(), 3u);
}

/// Seeded random observe / arm / check sequences (repeated, non-chosen and
/// NaN reports; re-arms with smaller, larger, different and repeating
/// sets): rounds complete exactly when the all_of definition says so, for
/// the round rule (RelativeMin) and the since-arm rule (RelativeMax).  The
/// threshold is out of reach, so every verdict is None.
TEST(ExecutionMonitor, RoundCompletionMatchesTheAllOfDefinition) {
  constexpr std::uint64_t kNodes = 8;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const auto kind : {ThresholdPolicy::Kind::RelativeMin,
                          ThresholdPolicy::Kind::RelativeMax}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE(::testing::Message() << to_string(kind) << " seed " << seed);
      Rng rng(seed);
      ThresholdPolicy p;
      p.kind = kind;
      p.z = 1e12;
      ExecutionMonitor mon(task_farm_traits(), p);
      std::vector<NodeId> chosen;
      std::map<std::uint64_t, double> round, latest;
      std::size_t rounds = 0;
      const auto arm = [&] {
        chosen.clear();
        const std::size_t size = 1 + rng.uniform_index(5);
        for (std::size_t i = 0; i < size; ++i)
          chosen.push_back(NodeId{rng.uniform_index(kNodes)});
        mon.arm(1.0, chosen, Seconds{0.0});
        round.clear();
        latest.clear();
      };
      arm();
      for (int step = 0; step < 300; ++step) {
        const std::uint64_t op = rng.uniform_index(10);
        if (op == 0) {
          arm();
        } else if (op < 7) {
          const NodeId n{rng.uniform_index(kNodes)};
          const double spm = rng.bernoulli(0.1) ? nan : rng.uniform(0.5, 2.0);
          mon.observe(n, spm, Seconds{0.0});
          round[n.value] = spm;
          latest[n.value] = spm;
        } else {
          const bool complete = kind == ThresholdPolicy::Kind::RelativeMax
                                    ? all_chosen_reported(chosen, latest)
                                    : all_chosen_reported(chosen, round);
          ASSERT_EQ(mon.check(Seconds{0.0}), MonitorVerdict::None);
          if (complete) {
            ++rounds;
            round.clear();
          }
          ASSERT_EQ(mon.rounds_completed(), rounds) << "step " << step;
        }
      }
    }
  }
}

TEST(ExecutionMonitor, VerdictNamesStable) {
  EXPECT_STREQ(to_string(MonitorVerdict::None), "none");
  EXPECT_STREQ(to_string(MonitorVerdict::ThresholdExceeded),
               "threshold_exceeded");
  EXPECT_STREQ(to_string(MonitorVerdict::RoundStale), "round_stale");
  EXPECT_STREQ(to_string(ThresholdPolicy::Kind::RelativeMax), "relative_max");
}

}  // namespace
}  // namespace grasp::core
