// Accrual-mode churn property suite: the farm's resilience invariants must
// hold unchanged when the failure detector runs per-node inter-arrival
// statistics instead of one fixed timeout, across 100 seeded churn
// timelines — and detection must respect the two sides of the accrual
// contract: never evict a live node (no false positives) and never exceed
// the `timeout + heartbeat_period` hard-cap latency bound.
//
// A second 100-seed sweep turns on the strike-based mid-chunk eviction
// (the pool's evict_ratio) under accrual detection: exactly-once
// conservation and the detection bounds are policy-independent and must
// survive it.
#include "tests/resil/churn_property.hpp"

#include <gtest/gtest.h>

namespace grasp::testing {
namespace {

// ---------------------------------------------------------------------
// Accrual detection alone: same invariants as the fixed suite plus the
// detection bounds, half the seeds with checkpointing.
class AccrualChurnProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AccrualChurnProperty, InvariantsAndDetectionBoundsHold) {
  const std::uint64_t seed = GetParam();
  ChurnPropertyConfig cfg;
  cfg.detection_mode = resil::DetectionMode::Accrual;
  cfg.checkpoint_period = (seed % 2 == 0) ? Seconds{1.0} : Seconds{0.0};
  const ChurnRun run = run_churn_scenario(seed, cfg);
  check_churn_invariants(run, seed);
  check_detection_latency_bound(run, seed);
}

INSTANTIATE_TEST_SUITE_P(HundredSeeds, AccrualChurnProperty,
                         ::testing::Range<std::uint64_t>(0, 100));

// ---------------------------------------------------------------------
// Accrual + strike-based eviction: progress reports (checkpointed seeds)
// and completions may evict a persistently slow node, abandoning its chunk
// mid-flight, but that may not bend exactly-once conservation or the
// detection bounds.  The suite keeps the name it had when it swept the
// dispatch-economics policy, whose break-even eviction this rule replaced;
// the seeds are unchanged.
class EconChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EconChurnProperty, EconomicsPreserveConservationAndBounds) {
  const std::uint64_t seed = GetParam();
  ChurnPropertyConfig cfg;
  cfg.detection_mode = resil::DetectionMode::Accrual;
  cfg.evict_ratio = 2.0;
  cfg.checkpoint_period = (seed % 2 == 0) ? Seconds{1.0} : Seconds{0.0};
  const ChurnRun run = run_churn_scenario(seed, cfg);
  check_churn_invariants(run, seed);
  check_detection_latency_bound(run, seed);
}

INSTANTIATE_TEST_SUITE_P(HundredSeeds, EconChurnProperty,
                         ::testing::Range<std::uint64_t>(0, 100));

// ---------------------------------------------------------------------
// Mode equivalence on a calm timeline: when nothing crashes, accrual
// detection must be a pure no-op on the outcome — same completed set,
// nothing wasted in either mode.
TEST(AccrualChurnProperty, CalmTimelineMatchesFixedMode) {
  for (const std::uint64_t seed : {1u, 9u, 23u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    ChurnPropertyConfig fixed_cfg;
    fixed_cfg.mtbf = 1e9;  // effectively no churn events
    ChurnPropertyConfig accrual_cfg = fixed_cfg;
    accrual_cfg.detection_mode = resil::DetectionMode::Accrual;
    const ChurnRun fixed = run_churn_scenario(seed, fixed_cfg);
    const ChurnRun accrual = run_churn_scenario(seed, accrual_cfg);
    EXPECT_DOUBLE_EQ(fixed.report.makespan.value,
                     accrual.report.makespan.value);
    EXPECT_EQ(fixed.report.tasks_completed, accrual.report.tasks_completed);
    EXPECT_DOUBLE_EQ(accrual.report.resilience.wasted_mops, 0.0);
  }
}

}  // namespace
}  // namespace grasp::testing
