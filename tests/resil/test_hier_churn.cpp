// Hierarchical churn properties: the churn_property invariants extended
// one level up.  A sub-farmer crash must promote a standby *within* the
// shard, roll back only the un-replicated suffix of its completion log,
// and re-dispatch only unfinished work — with the root's exactly-once
// accounting intact no matter how many coordinators die.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "core/backend_sim.hpp"
#include "core/hier_farm.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/telemetry.hpp"
#include "workloads/generators.hpp"

namespace grasp::testing {
namespace {

using core::HierFarm;
using core::HierFarmParams;
using core::HierFarmReport;
using gridsim::TraceEventKind;

workloads::TaskSet hier_tasks(std::size_t n, double mean_mops,
                              std::uint64_t seed) {
  workloads::TaskSetParams tp;
  tp.count = n;
  tp.mean_mops = mean_mops;
  tp.cv = 0.6;
  tp.seed = seed;
  return workloads::make_task_set(tp);
}

/// Runs record into `tel`, at the detail tier by default: the invariants
/// below read the per-task trace records.
HierFarmParams hier_params(obs::Telemetry& tel) {
  HierFarmParams p;
  p.telemetry = &tel;
  p.workers_per_shard = 4;
  p.detector.heartbeat_period = Seconds{1.0};
  p.detector.timeout = Seconds{4.0};
  p.standby_count = 2;
  p.promotion_handshake = Seconds{2.0};
  return p;
}

/// The hierarchical exactly-once / conservation invariants.  Unlike the
/// flat replicated farmer, the root ingests completions exactly once (a
/// retracted completion was by definition never reported), so the trace
/// check is strict: one TaskCompleted per task, ever.
void check_hier_invariants(const HierFarmReport& r, std::size_t total) {
  EXPECT_EQ(r.tasks_completed + r.calibration_tasks, total);

  std::unordered_map<std::uint64_t, std::size_t> completions;
  std::unordered_map<std::uint64_t, std::size_t> dispatches;
  std::size_t redispatch_tasks = 0;
  for (const auto& e : r.trace.events()) {
    switch (e.kind) {
      case TraceEventKind::TaskCompleted:
        ++completions[e.task.value];
        break;
      case TraceEventKind::TaskDispatched:
        ++dispatches[e.task.value];
        break;
      case TraceEventKind::ChunkRedispatched:
        redispatch_tasks += static_cast<std::size_t>(e.value);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(completions.size(), total);
  for (const auto& [task, n] : completions) {
    SCOPED_TRACE(::testing::Message() << "task=" << task);
    EXPECT_EQ(n, 1u);
  }
  // Chunks carry several tasks, so per-task dispatch counts are implied by
  // the chunk-level TaskDispatched events (task = first of chunk); the
  // redispatch counter must still match the trace event-for-event.
  EXPECT_EQ(r.redispatched, redispatch_tasks);
  EXPECT_EQ(r.promotions, r.trace.count(TraceEventKind::FarmerPromoted));
  EXPECT_EQ(r.results_lost, r.trace.count(TraceEventKind::TaskResultLost));
  EXPECT_GT(r.makespan.value, 0.0);
  EXPECT_LT(r.makespan.value, 2e4);
}

// ------------------------------------------------- planted coordinator loss

/// 1 root + 8 uniform workers in 2 shards.  Shard membership is derived
/// from plan_shards itself, so the test stays correct if the partition
/// policy changes.
TEST(HierChurnProperty, SubFarmerCrashPromotesWithinTheShard) {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (int i = 0; i < 9; ++i) b.add_node(s, 100.0);
  gridsim::Grid grid = b.build();

  std::vector<NodeId> workers;
  std::vector<double> speeds;
  for (std::uint64_t i = 1; i <= 8; ++i) {
    workers.push_back(NodeId{i});
    speeds.push_back(100.0);
  }
  const auto plan = core::plan_shards(workers, speeds, 2);
  const NodeId victim = plan[0].front();  // shard 0's initial sub-farmer

  grid.node(victim).add_downtime({Seconds{12.0}, Seconds{1e9}});
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{12.0}, gridsim::ChurnEventKind::Crash, victim}}));

  core::SimBackend backend(grid);
  const workloads::TaskSet ts = hier_tasks(160, 2000.0, 17);
  obs::Telemetry tel;
  const HierFarmReport r =
      HierFarm(hier_params(tel)).run(backend, grid, grid.node_ids(), ts);

  check_hier_invariants(r, 160);
  EXPECT_EQ(r.trace.count(TraceEventKind::FarmerCrashDetected), 1u);
  ASSERT_EQ(r.promotions, 1u);
  // The promotion stayed inside the shard that lost its coordinator.
  NodeId promoted = NodeId::invalid();
  for (const auto& e : r.trace.events())
    if (e.kind == TraceEventKind::FarmerPromoted) promoted = e.node;
  ASSERT_TRUE(promoted.is_valid());
  EXPECT_NE(promoted, victim);
  EXPECT_NE(plan[0].end(),
            std::find(plan[0].begin(), plan[0].end(), promoted));
  // The report's shard summary agrees on the final coordinator.
  EXPECT_EQ(r.shard_summaries[0].sub_farmer, promoted);
  EXPECT_EQ(r.shard_summaries[0].promotions, 1u);
  EXPECT_EQ(r.shard_summaries[1].promotions, 0u);
}

/// Suffix-only recovery: completions the dead sub-farmer already shipped
/// to the root are never re-dispatched — only its in-flight chunks and
/// the un-replicated log suffix return to the queue.
TEST(HierChurnProperty, SubFarmerCrashRedispatchesOnlyTheSuffix) {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (int i = 0; i < 9; ++i) b.add_node(s, 100.0);
  gridsim::Grid grid = b.build();
  std::vector<NodeId> workers;
  std::vector<double> speeds;
  for (std::uint64_t i = 1; i <= 8; ++i) {
    workers.push_back(NodeId{i});
    speeds.push_back(100.0);
  }
  const auto plan = core::plan_shards(workers, speeds, 2);
  const NodeId victim = plan[0].front();
  // Crash late enough that shard 0 has completed and reported work.
  grid.node(victim).add_downtime({Seconds{40.0}, Seconds{1e9}});
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{40.0}, gridsim::ChurnEventKind::Crash, victim}}));

  core::SimBackend backend(grid);
  const workloads::TaskSet ts = hier_tasks(240, 2000.0, 23);
  obs::Telemetry tel;
  const HierFarmReport r =
      HierFarm(hier_params(tel)).run(backend, grid, grid.node_ids(), ts);

  check_hier_invariants(r, 240);
  ASSERT_EQ(r.promotions, 1u);
  EXPECT_GT(r.redispatched, 0u);  // the in-flight chunks really were lost
  // Strictly fewer tasks re-dispatched than the shard had finished: the
  // reported prefix survived the crash.
  EXPECT_LT(r.redispatched, r.shard_summaries[0].tasks_completed);
}

/// Rollback of un-replicated completions.  Shard 0's only standby drops
/// off the network after the liveness tick that last reaches it and comes
/// back just after the tick on which the root declares the dead sub-farmer.
/// It is never itself suspected, so it is promoted, but it missed every
/// flush in between: completions that landed in that window exist only in
/// the dead coordinator's log.  Promotion must retract those not yet at
/// the root (each one a lost result, traced once) and re-run them, and the
/// root must still count every task exactly once.
TEST(HierChurnProperty, SubFarmerCrashRetractsUnflushedCompletions) {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (int i = 0; i <= 16; ++i) b.add_node(s, 100.0);
  gridsim::Grid grid = b.build();
  std::vector<NodeId> workers;
  std::vector<double> speeds;
  for (std::uint64_t i = 1; i <= 16; ++i) {
    workers.push_back(NodeId{i});
    speeds.push_back(100.0);
  }
  const auto plan = core::plan_shards(workers, speeds, 2);
  const NodeId victim = plan[0].front();
  std::vector<NodeId> by_id = plan[0];
  std::sort(by_id.begin(), by_id.end());
  const NodeId standby = by_id.front() == victim ? by_id[1] : by_id.front();

  // Heartbeats every 1 s, timeout 4 s: the sub-farmer's last beat is at
  // t=13, so the root declares it at t=18.  The standby beats at t=14,
  // misses t=15..18 (silence 4 s, not yet suspect) and is back by t=19.
  grid.node(victim).add_downtime({Seconds{13.5}, Seconds{1e9}});
  grid.node(standby).add_downtime({Seconds{14.5}, Seconds{18.5}});
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{13.5}, gridsim::ChurnEventKind::Crash, victim},
       {Seconds{14.5}, gridsim::ChurnEventKind::Crash, standby},
       {Seconds{18.5}, gridsim::ChurnEventKind::Rejoin, standby}}));

  obs::Telemetry tel;
  HierFarmParams p = hier_params(tel);
  p.workers_per_shard = 8;
  p.standby_count = 1;
  core::SimBackend backend(grid);
  const workloads::TaskSet ts = hier_tasks(480, 500.0, 37);
  const HierFarmReport r = HierFarm(p).run(backend, grid, grid.node_ids(), ts);

  check_hier_invariants(r, 480);
  ASSERT_EQ(r.promotions, 1u);
  EXPECT_EQ(r.shard_summaries[0].sub_farmer, standby);
  EXPECT_GT(r.results_lost, 0u);
  EXPECT_EQ(r.results_lost, r.trace.count(TraceEventKind::TaskResultLost));
}

// ------------------------------------------------------ planted worker loss

TEST(HierChurnProperty, WorkerCrashStaysLocalToItsShard) {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (int i = 0; i < 9; ++i) b.add_node(s, 100.0);
  gridsim::Grid grid = b.build();
  std::vector<NodeId> workers;
  std::vector<double> speeds;
  for (std::uint64_t i = 1; i <= 8; ++i) {
    workers.push_back(NodeId{i});
    speeds.push_back(100.0);
  }
  const auto plan = core::plan_shards(workers, speeds, 2);
  const NodeId victim = plan[0].back();  // an ordinary member of shard 0

  grid.node(victim).add_downtime({Seconds{15.0}, Seconds{1e9}});
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{15.0}, gridsim::ChurnEventKind::Crash, victim}}));

  core::SimBackend backend(grid);
  const workloads::TaskSet ts = hier_tasks(160, 2000.0, 29);
  obs::Telemetry tel;
  const HierFarmReport r =
      HierFarm(hier_params(tel)).run(backend, grid, grid.node_ids(), ts);

  check_hier_invariants(r, 160);
  // A worker loss is a shard-local affair: no promotion, no root churn.
  EXPECT_EQ(r.promotions, 0u);
  EXPECT_EQ(r.trace.count(TraceEventKind::NodeCrashDetected), 1u);
  EXPECT_GE(r.shard_summaries[0].redispatched, 1u);
  EXPECT_EQ(r.shard_summaries[1].redispatched, 0u);
}

// ----------------------------------------------------------- seeded churn

/// Poisson churn over the whole worker tier, sub-farmers included:
/// whatever dies, every task completes exactly once at the root.  The
/// first two nodes are protected (the root plus one immortal worker), so
/// the pool can always finish.
TEST(HierChurnProperty, SeededChurnConservesTasksExactlyOnce) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    gridsim::ChurnScenarioParams cp;
    cp.grid.node_count = 9;
    cp.grid.dynamics = gridsim::Dynamics::Stable;
    cp.grid.seed = 500 + seed;
    cp.mtbf = 150.0;
    cp.crash_fraction = 0.7;
    cp.rejoin_probability = 0.0;  // the worker set only shrinks
    cp.horizon = Seconds{500.0};
    cp.warmup = Seconds{10.0};
    cp.protected_prefix = 2;
    cp.churn_seed = 7919 * (seed + 1);
    const gridsim::Grid grid = gridsim::make_churn_grid(cp);

    core::SimBackend backend(grid);
    const workloads::TaskSet ts = hier_tasks(200, 1500.0, 31 * seed + 5);
    obs::Telemetry tel;
    const HierFarmReport r =
        HierFarm(hier_params(tel)).run(backend, grid, grid.node_ids(), ts);
    check_hier_invariants(r, 200);
  }
}

}  // namespace
}  // namespace grasp::testing
