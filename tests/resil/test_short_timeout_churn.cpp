// Short-timeout churn property suite: the farm's resilience invariants
// must hold when the failure detector runs at `timeout = 1.5 s`, 1.5
// heartbeat periods, across 100 seeded churn timelines, and detection must
// respect both sides of the timeout contract: never evict a live node (no
// false positives) and never exceed the `timeout + heartbeat_period`
// latency bound.  1.5 periods is the tightest leash that still spans one
// missed beat, so this is where a false positive would show first.
//
// The suite keeps the name it had when it swept accrual detection: with
// the simulator's heartbeats exactly one period apart, accrual's per-node
// estimate always sat at its 1.5-period floor, so a fixed 1.5 s timeout is
// the same leash.  The seeds are unchanged.
//
// A second 100-seed sweep turns on the strike-based mid-chunk eviction
// (the pool's evict_ratio) under the default detector: exactly-once
// conservation and the detection bounds are policy-independent and must
// survive it.
#include "tests/resil/churn_property.hpp"

#include <gtest/gtest.h>

namespace grasp::testing {
namespace {

// ---------------------------------------------------------------------
// Short timeout alone: same invariants as the default-timeout suite plus
// the detection bounds, half the seeds with checkpointing.
class AccrualChurnProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AccrualChurnProperty, InvariantsAndDetectionBoundsHold) {
  const std::uint64_t seed = GetParam();
  ChurnPropertyConfig cfg;
  cfg.timeout = Seconds{1.5 * kPropertyHeartbeat};
  cfg.checkpoint_period = (seed % 2 == 0) ? Seconds{1.0} : Seconds{0.0};
  const ChurnRun run = run_churn_scenario(seed, cfg);
  check_churn_invariants(run, seed);
  check_detection_latency_bound(run, seed);
}

INSTANTIATE_TEST_SUITE_P(HundredSeeds, AccrualChurnProperty,
                         ::testing::Range<std::uint64_t>(0, 100));

// ---------------------------------------------------------------------
// Strike-based eviction: progress reports (checkpointed seeds) and
// completions may evict a persistently slow node, abandoning its chunk
// mid-flight, but that may not bend exactly-once conservation or the
// detection bounds.  The suite keeps the name it had when it swept the
// dispatch-economics policy, whose break-even eviction this rule replaced;
// the seeds are unchanged.
class EconChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EconChurnProperty, EconomicsPreserveConservationAndBounds) {
  const std::uint64_t seed = GetParam();
  ChurnPropertyConfig cfg;
  cfg.evict_ratio = 2.0;
  cfg.checkpoint_period = (seed % 2 == 0) ? Seconds{1.0} : Seconds{0.0};
  const ChurnRun run = run_churn_scenario(seed, cfg);
  check_churn_invariants(run, seed);
  check_detection_latency_bound(run, seed);
}

INSTANTIATE_TEST_SUITE_P(HundredSeeds, EconChurnProperty,
                         ::testing::Range<std::uint64_t>(0, 100));

}  // namespace
}  // namespace grasp::testing
