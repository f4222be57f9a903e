// Property tests: the farm's resilience invariants under seeded random
// churn, and the ChunkLedger's conservation law under random operation
// sequences.  This is the safety net that lets checkpointing (and future
// changes) touch the re-dispatch hot path: ~100 scenario seeds run in the
// default ctest pass, each deterministic on SimBackend.
#include "tests/resil/churn_property.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "resil/chunk_ledger.hpp"
#include "support/rng.hpp"

namespace grasp::testing {
namespace {

// ---------------------------------------------------------------------
// Farm-level invariants across 100 seeded churn timelines.  Half the seeds
// run with checkpointing off (the PR 1/2 paths), half with a 1 s
// checkpoint interval (the salvage paths) — the invariants must hold for
// both configurations of the hot path.
class ChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChurnProperty, LedgerInvariantsHoldUnderSeededChurn) {
  const std::uint64_t seed = GetParam();
  ChurnPropertyConfig cfg;
  cfg.checkpoint_period = (seed % 2 == 0) ? Seconds{1.0} : Seconds{0.0};
  const ChurnRun run = run_churn_scenario(seed, cfg);
  check_churn_invariants(run, seed);
}

INSTANTIATE_TEST_SUITE_P(HundredSeeds, ChurnProperty,
                         ::testing::Range<std::uint64_t>(0, 100));

// ---------------------------------------------------------------------
// Replicated-farmer seeds: protected_prefix = 0 makes the coordinator
// itself churnable, two hot standbys shadow it, and the same invariants
// must hold — exactly-once net of retractions, ledger conservation, and
// bounded promotion latency (timeout + heartbeat_period + handshake for
// promptly available standbys) — across every timeline the generator
// throws at it, including runs where the farmer dies more than once.
class FarmerChurnProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FarmerChurnProperty, InvariantsHoldWithChurnableFarmer) {
  const std::uint64_t seed = GetParam();
  ChurnPropertyConfig cfg;
  cfg.protected_prefix = 0;
  cfg.standby_count = 2;
  cfg.checkpoint_period = (seed % 2 == 0) ? Seconds{2.0} : Seconds{0.0};
  const ChurnRun run = run_churn_scenario(seed, cfg);
  check_churn_invariants(run, seed);
}

INSTANTIATE_TEST_SUITE_P(HundredSeeds, FarmerChurnProperty,
                         ::testing::Range<std::uint64_t>(0, 100));

// ---------------------------------------------------------------------
// Checkpoint/no-checkpoint result equivalence: same seed, same scenario —
// identical final outputs (the completed-task id set), identical task
// counts, and the checkpointed run never wastes more work than the
// baseline on the same timeline.
class CheckpointEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

std::unordered_set<std::uint64_t> completed_ids(const core::FarmReport& r) {
  std::unordered_set<std::uint64_t> ids;
  for (const auto& e : r.trace.events())
    if (e.kind == gridsim::TraceEventKind::TaskCompleted)
      ids.insert(e.task.value);
  return ids;
}

TEST_P(CheckpointEquivalence, SameOutputsAndNoMoreWaste) {
  const std::uint64_t seed = GetParam();
  SCOPED_TRACE(::testing::Message() << "seed=" << seed);

  ChurnPropertyConfig baseline_cfg;
  baseline_cfg.checkpoint_period = Seconds::zero();
  ChurnPropertyConfig ckpt_cfg = baseline_cfg;
  ckpt_cfg.checkpoint_period = Seconds{1.0};

  const ChurnRun baseline = run_churn_scenario(seed, baseline_cfg);
  const ChurnRun ckpt = run_churn_scenario(seed, ckpt_cfg);

  // Identical final outputs and task counts.
  EXPECT_EQ(baseline.report.tasks_completed +
                baseline.report.calibration_tasks,
            baseline.total_tasks);
  EXPECT_EQ(ckpt.report.tasks_completed + ckpt.report.calibration_tasks,
            ckpt.total_tasks);
  EXPECT_EQ(completed_ids(baseline.report), completed_ids(ckpt.report));

  // Salvage can only shrink the wasted column on the same timeline.
  EXPECT_LE(ckpt.report.resilience.wasted_mops,
            baseline.report.resilience.wasted_mops);
  // The baseline ships no checkpoints and salvages nothing.
  EXPECT_EQ(baseline.report.resilience.checkpoints, 0u);
  EXPECT_EQ(baseline.report.resilience.tasks_recovered, 0u);
  EXPECT_DOUBLE_EQ(baseline.report.resilience.recovered_mops, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointEquivalence,
                         ::testing::Range<std::uint64_t>(0, 24));

// ---------------------------------------------------------------------
// Determinism: the harness itself must reproduce bit-identical runs, or a
// red seed could not be debugged.
TEST(ChurnPropertyHarness, DeterministicPerSeed) {
  ChurnPropertyConfig cfg;
  cfg.checkpoint_period = Seconds{1.0};
  for (const std::uint64_t seed : {3u, 17u, 42u}) {
    const ChurnRun a = run_churn_scenario(seed, cfg);
    const ChurnRun b = run_churn_scenario(seed, cfg);
    EXPECT_DOUBLE_EQ(a.report.makespan.value, b.report.makespan.value);
    EXPECT_EQ(a.report.resilience.checkpoints,
              b.report.resilience.checkpoints);
    EXPECT_DOUBLE_EQ(a.report.resilience.recovered_mops,
                     b.report.resilience.recovered_mops);
  }
}

// ---------------------------------------------------------------------
// ChunkLedger conservation under random operation sequences: every task
// that enters the ledger leaves through exactly one of {completed,
// recovered, wasted, finished-elsewhere}, high-water marks are monotone,
// and fail_node surrenders a node's entries exactly once.
TEST(ChunkLedgerProperty, ConservationUnderRandomOperations) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    SplitMix64 rng(0x9E3779B97F4A7C15ull ^ seed);
    resil::ChunkLedger ledger;

    struct Live {
      core::OpToken token;
      NodeId node;
      std::vector<TaskId> tasks;
      std::size_t high_water = 0;
    };
    std::vector<Live> live;
    std::unordered_set<std::uint64_t> twin_done;  // "completed elsewhere"
    core::OpToken next_token = 1;
    std::uint64_t next_task = 0;

    std::size_t tasks_entered = 0;
    std::size_t tasks_completed = 0;
    std::size_t tasks_twin_done = 0;
    const auto completed_fn = [&](TaskId id) {
      return twin_done.count(id.value) != 0;
    };

    for (int step = 0; step < 400; ++step) {
      const std::uint64_t roll = rng.next() % 100;
      if (roll < 30 || live.empty()) {
        // Dispatch a fresh chunk of 1..4 tasks.
        Live l;
        l.token = next_token++;
        l.node = NodeId{rng.next() % 5};
        const std::size_t n = 1 + rng.next() % 4;
        resil::ChunkLedger::Entry e;
        e.node = l.node;
        for (std::size_t i = 0; i < n; ++i) {
          workloads::TaskSpec t;
          t.id = TaskId{next_task++};
          t.work = Mops{10.0};
          e.tasks.push_back(t);
          l.tasks.push_back(t.id);
        }
        e.dispatched = Seconds{static_cast<double>(step)};
        e.work = Mops{10.0 * static_cast<double>(n)};
        ledger.record(l.token, std::move(e));
        tasks_entered += n;
        live.push_back(std::move(l));
      } else if (roll < 45) {
        // Checkpoint a random live chunk at a random (possibly stale) mark.
        Live& l = live[rng.next() % live.size()];
        const std::size_t mark = rng.next() % (l.tasks.size() + 2);
        const std::size_t before = ledger.checkpointed(l.token);
        const bool advanced = ledger.checkpoint(l.token, mark);
        const std::size_t after = ledger.checkpointed(l.token);
        EXPECT_GE(after, before);  // monotone high-water mark
        EXPECT_EQ(advanced, after > before);
        EXPECT_LE(after, l.tasks.size());  // clamped to the chunk
        l.high_water = after;
      } else if (roll < 60) {
        // Phase transition: the chunk keeps its key.
        const Live& l = live[rng.next() % live.size()];
        ledger.advance(l.token);
        EXPECT_TRUE(ledger.tracks(l.token));
        EXPECT_EQ(ledger.checkpointed(l.token), l.high_water);  // mark survives
      } else if (roll < 75) {
        // Normal completion.
        const std::size_t idx = rng.next() % live.size();
        const auto entry = ledger.complete(live[idx].token);
        ASSERT_TRUE(entry.has_value());
        for (const auto& t : entry->tasks)
          if (!twin_done.count(t.id.value)) ++tasks_completed;
        live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
      } else if (roll < 85) {
        // A twin wins one random in-flight task.
        const Live& l = live[rng.next() % live.size()];
        const TaskId id = l.tasks[rng.next() % l.tasks.size()];
        if (twin_done.insert(id.value).second) ++tasks_twin_done;
      } else {
        // Crash a node: surrendered exactly once.
        const NodeId node{rng.next() % 5};
        const auto lost = ledger.fail_node(node, completed_fn);
        EXPECT_TRUE(ledger.fail_node(node, completed_fn).empty());
        std::unordered_set<core::OpToken> gone;
        for (const auto& [token, entry] : lost) {
          (void)entry;
          EXPECT_FALSE(ledger.tracks(token));
          gone.insert(token);
        }
        live.erase(std::remove_if(live.begin(), live.end(),
                                  [&](const Live& l) {
                                    return gone.count(l.token) != 0;
                                  }),
                   live.end());
      }
    }
    // Drain the survivors.
    for (const Live& l : live) {
      const auto entry = ledger.complete(l.token);
      ASSERT_TRUE(entry.has_value());
      for (const auto& t : entry->tasks)
        if (!twin_done.count(t.id.value)) ++tasks_completed;
    }

    // Conservation: dispatched = completed + twin-finished + recovered +
    // wasted, with no task in two buckets.
    EXPECT_EQ(tasks_entered, tasks_completed + tasks_twin_done +
                                 ledger.tasks_recovered() +
                                 ledger.tasks_lost());
    EXPECT_DOUBLE_EQ(ledger.wasted_mops(),
                     10.0 * static_cast<double>(ledger.tasks_lost()));
    EXPECT_DOUBLE_EQ(ledger.recovered_mops(),
                     10.0 * static_cast<double>(ledger.tasks_recovered()));
  }
}

}  // namespace
}  // namespace grasp::testing
