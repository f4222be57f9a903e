// Checkpoint recovery: planted scenarios for the partial-result protocol.
//
// A worker that dies (or is evicted) mid-chunk must cost only the
// un-checkpointed suffix: the prefix the farmer already holds is completed
// in place (TaskRecovered), the suffix is re-dispatched, and the wasted /
// recovered accounting splits accordingly.
#include <gtest/gtest.h>

#include <unordered_set>

#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "core/task_farm.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/telemetry.hpp"
#include "workloads/generators.hpp"

namespace grasp::core {
namespace {

using gridsim::TraceEventKind;

workloads::TaskSet uniform_tasks(std::size_t n, double mops) {
  workloads::TaskSet ts;
  ts.name = "checkpoint-planted";
  for (std::size_t i = 0; i < n; ++i) {
    workloads::TaskSpec t;
    t.id = TaskId{i};
    t.work = Mops{mops};
    t.input = Bytes{1e3};
    t.output = Bytes{1e3};
    ts.tasks.push_back(t);
  }
  return ts;
}

FarmParams checkpointed_params(double period = 1.0) {
  FarmParams p = make_demand_farm_params();
  p.chunk_size = 4;
  p.resilience.enabled = true;
  p.resilience.detector.heartbeat_period = Seconds{1.0};
  p.resilience.detector.timeout = Seconds{5.0};
  p.resilience.checkpoint_period = Seconds{period};
  return p;
}

// Two equal workers; node 1 crashes mid-chunk and never returns.  Whatever
// prefix of its 4-task chunk was checkpointed must be recovered, the rest
// re-dispatched to the survivor — never the whole chunk.
TEST(CheckpointRecovery, CrashMidChunkResumesFromLastCheckpoint) {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  b.add_node(s, 100.0);  // node 0: root + worker
  b.add_node(s, 100.0);  // node 1: crashes mid-chunk
  gridsim::Grid grid = b.build();
  grid.node(NodeId{1}).add_downtime({Seconds{8.0}, Seconds{20008.0}});
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{8.0}, gridsim::ChurnEventKind::Crash, NodeId{1}}}));

  // 2 calibration tasks + 8 execution tasks of 2 s each: both workers take
  // a 4-task chunk; at t=8 node 1 is partway through its chunk.
  const workloads::TaskSet ts = uniform_tasks(10, 200.0);
  SimBackend backend(grid);
  const FarmReport r = TaskFarm(checkpointed_params())
                           .run(backend, grid, grid.node_ids(), ts);

  // 100% completion, exactly once.
  EXPECT_EQ(r.tasks_completed + r.calibration_tasks, 10u);
  EXPECT_EQ(r.trace.count(TraceEventKind::TaskCompleted), 10u);
  EXPECT_GE(r.resilience.crashes_detected, 1u);

  // Progress was checkpointed and partially salvaged: the lost chunk split
  // into a recovered prefix and a re-dispatched suffix.
  EXPECT_GT(r.resilience.checkpoints, 0u);
  EXPECT_GE(r.resilience.tasks_recovered, 1u);
  EXPECT_GE(r.resilience.tasks_redispatched, 1u);
  EXPECT_LT(r.resilience.tasks_redispatched, 4u);  // never the whole chunk
  EXPECT_GT(r.resilience.recovered_mops, 0.0);
  EXPECT_GT(r.resilience.wasted_mops, 0.0);

  // Recovered and re-dispatched sets partition the lost chunk: no task in
  // both, each recovered task completed exactly once (at recovery).
  std::unordered_set<std::uint64_t> recovered;
  std::unordered_set<std::uint64_t> redispatched;
  for (const auto& e : r.trace.events()) {
    if (e.kind == TraceEventKind::TaskRecovered) {
      EXPECT_TRUE(recovered.insert(e.task.value).second);
    }
    if (e.kind == TraceEventKind::ChunkRedispatched) {
      EXPECT_TRUE(redispatched.insert(e.task.value).second);
    }
  }
  for (const auto id : recovered) EXPECT_EQ(redispatched.count(id), 0u);

  // Detection-bounded finish, not outage-bounded.
  EXPECT_LT(r.makespan.value, 100.0);
}

// The same scenario without checkpointing re-dispatches the whole chunk:
// checkpointing must strictly reduce both the re-dispatch volume and the
// wasted work on this planted timeline.
TEST(CheckpointRecovery, CheckpointingStrictlyReducesWasteOnPlantedCrash) {
  const workloads::TaskSet ts = uniform_tasks(10, 200.0);
  auto run_with = [&](double period) {
    gridsim::GridBuilder b;
    const SiteId s = b.add_site("a");
    b.add_node(s, 100.0);
    b.add_node(s, 100.0);
    gridsim::Grid grid = b.build();
    grid.node(NodeId{1}).add_downtime({Seconds{8.0}, Seconds{20008.0}});
    grid.set_churn(gridsim::ChurnTimeline(
        {{Seconds{8.0}, gridsim::ChurnEventKind::Crash, NodeId{1}}}));
    SimBackend backend(grid);
    return TaskFarm(checkpointed_params(period))
        .run(backend, grid, grid.node_ids(), ts);
  };
  const FarmReport with = run_with(1.0);
  const FarmReport without = run_with(0.0);
  EXPECT_EQ(without.resilience.tasks_recovered, 0u);
  EXPECT_LT(with.resilience.wasted_mops, without.resilience.wasted_mops);
  EXPECT_LT(with.resilience.tasks_redispatched,
            without.resilience.tasks_redispatched);
  EXPECT_LE(with.makespan.value, without.makespan.value);
}

// Regression for the untested eviction path: a worker that degrades
// persistently mid-chunk (owner reclaims the machine: heavy external load,
// no crash) is evicted off the progress stream, and its in-flight chunk
// resumes from the last checkpoint instead of restarting or grinding out
// the crawl.
TEST(CheckpointRecovery, EvictedNodeChunkResumesFromLastCheckpoint) {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (int i = 0; i < 3; ++i) b.add_node(s, 100.0);
  gridsim::Grid grid = b.build();
  // Node 2 stays a member (no churn event) but is swamped from t=6: 49
  // competitors cut its effective speed 50x while it is two tasks into its
  // 4-task chunk (dispatched at t=2, 2 s per task).
  gridsim::inject_load_step_on(grid, NodeId{2}, Seconds{6.0}, 49.0);
  grid.set_churn(gridsim::ChurnTimeline(std::vector<gridsim::ChurnEvent>{}));

  FarmParams p = checkpointed_params();
  p.resilience.pool.evict_ratio = 2.0;
  // No straggler twins: tail steal would quietly rescue the crawling chunk
  // and mask the path under test — eviction must be what saves it.
  p.reissue_stragglers = false;
  // 3 calibration tasks + 12 execution tasks: every worker draws a 4-task
  // chunk of 2 s tasks at t~=3, so node 2 is ~3 tasks in when the load
  // lands and crawls from there.
  const workloads::TaskSet ts = uniform_tasks(15, 200.0);
  SimBackend backend(grid);
  const FarmReport r = TaskFarm(p).run(backend, grid, grid.node_ids(), ts);

  // The degradation was caught mid-chunk: eviction happened without any
  // crash or membership event — and the evicted node's discarded straggler
  // completion must not masquerade as a zombie (no crash occurred).
  EXPECT_EQ(r.resilience.crashes_detected, 0u);
  EXPECT_EQ(r.resilience.zombie_completions, 0u);
  EXPECT_GE(r.resilience.evictions, 1u);
  bool mid_chunk_eviction = false;
  for (const auto& e : r.trace.events())
    if (e.kind == TraceEventKind::NodeEvicted && e.node == NodeId{2} &&
        e.note == "mid-chunk degradation")
      mid_chunk_eviction = true;
  EXPECT_TRUE(mid_chunk_eviction);

  // Its chunk resumed from the last checkpoint: prefix recovered, suffix
  // re-dispatched, everything completed exactly once in scenario time.
  EXPECT_GE(r.resilience.tasks_recovered, 1u);
  EXPECT_GE(r.resilience.tasks_redispatched, 1u);
  EXPECT_EQ(r.tasks_completed + r.calibration_tasks, 15u);
  EXPECT_EQ(r.trace.count(TraceEventKind::TaskCompleted), 15u);
  // The survivors absorb the suffix quickly; the crawl would have taken
  // ~100 s per remaining task.
  EXPECT_LT(r.makespan.value, 60.0);
}

// Tail reissue must duplicate only the un-checkpointed suffix: the prefix
// the farmer can already salvage is never shipped to a twin.
TEST(CheckpointRecovery, ReissueTwinSkipsCheckpointedPrefix) {
  // Node 0 fast, node 1 slow: node 1's chunk becomes the tail straggler
  // once the queue runs dry and node 0 idles.
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  b.add_node(s, 400.0);
  b.add_node(s, 50.0);
  gridsim::Grid grid = b.build();
  grid.set_churn(gridsim::ChurnTimeline(std::vector<gridsim::ChurnEvent>{}));

  FarmParams p = checkpointed_params();
  p.chunk_size = 4;
  p.straggler_factor = 4.0;
  obs::Telemetry tel;  // detail tier: the check reads the dispatches
  p.telemetry = &tel;
  const workloads::TaskSet ts = uniform_tasks(10, 200.0);
  SimBackend backend(grid);
  const FarmReport r = TaskFarm(p).run(backend, grid, grid.node_ids(), ts);

  EXPECT_EQ(r.tasks_completed + r.calibration_tasks, 10u);
  EXPECT_EQ(r.trace.count(TraceEventKind::TaskCompleted), 10u);
  if (r.reissues > 0) {
    // Any reissued task must lie outside every checkpointed prefix at the
    // time of the reissue: with per-beat checkpoints on a 16 s/task node,
    // the first task of the slow chunk is checkpointed long before the
    // fast node idles, so it can never be part of a twin.
    std::unordered_set<std::uint64_t> reissued;
    for (const auto& e : r.trace.events())
      if (e.kind == TraceEventKind::TaskReissued) reissued.insert(e.task.value);
    ASSERT_FALSE(reissued.empty());
    std::uint64_t slow_first_task = TaskId::invalid().value;
    for (const auto& e : r.trace.events()) {
      if (e.kind == TraceEventKind::TaskDispatched && e.node == NodeId{1} &&
          e.note.empty()) {
        slow_first_task = e.task.value;
        break;
      }
    }
    ASSERT_NE(slow_first_task, TaskId::invalid().value);
    EXPECT_EQ(reissued.count(slow_first_task), 0u);
  }
}

}  // namespace
}  // namespace grasp::core
