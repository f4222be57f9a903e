// Farmer failover: replica log unit semantics and planted promotion
// scenarios.  The planted grids make the coordinator itself churnable
// (protected_prefix = 0 in scenario terms): the farmer crashes or leaves
// mid-run, a standby takes over deterministically, raced completions are
// reconciled through the replicated ledger, and the exactly-once /
// conservation invariants hold through every degenerate path — double
// crash, crash during promotion, no-standby self-recovery.
#include <gtest/gtest.h>

#include <unordered_map>

#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "core/task_farm.hpp"
#include "gridsim/grid.hpp"
#include "obs/telemetry.hpp"
#include "resil/chunk_ledger.hpp"
#include "resil/replica_log.hpp"
#include "workloads/generators.hpp"

namespace grasp::resil {
namespace {

using core::FarmParams;
using core::FarmReport;
using core::SimBackend;
using core::TaskFarm;
using gridsim::ChurnEventKind;
using gridsim::TraceEventKind;

// ---------------------------------------------------------------- log unit

ReplicaLog::Record complete_record(NodeId node,
                                   std::vector<workloads::TaskSpec> tasks) {
  ReplicaLog::Record r;
  r.kind = ReplicaRecordKind::Complete;
  r.node = node;
  r.tasks = std::move(tasks);
  return r;
}

TEST(ReplicaLog, FlushAdvancesLiveWatermarksOnly) {
  ReplicaLog log;
  log.add_replica(NodeId{1});
  log.add_replica(NodeId{2});
  log.append(complete_record(NodeId{7}, {}));
  ReplicaLog::Record with_state = complete_record(NodeId{7}, {});
  with_state.state_bytes = 100.0;
  log.append(std::move(with_state));

  // Node 2 is down until it joins at t=1.
  const gridsim::ChurnTimeline timeline(
      {{Seconds{1.0}, ChurnEventKind::Join, NodeId{2}}}, {NodeId{2}});
  gridsim::LivenessCursor live(timeline);
  const auto stats = log.flush(live, Seconds{0.0});
  EXPECT_EQ(stats.records, 2u);  // two records, one live standby
  // Each record copy costs its fixed 32 bytes plus the state riding it.
  EXPECT_DOUBLE_EQ(stats.bytes, 2 * 32.0 + 100.0);
  EXPECT_EQ(log.watermark(NodeId{1}), 2u);
  EXPECT_EQ(log.watermark(NodeId{2}), 0u);
  // Node 2 still pins history: nothing was compacted.
  EXPECT_EQ(log.base_seq(), 0u);
  EXPECT_EQ(log.retained(), 2u);

  const auto both = log.flush(live, Seconds{1.0});
  EXPECT_EQ(both.records, 2u);  // only node 2 still lacked them
  EXPECT_DOUBLE_EQ(both.bytes, 2 * 32.0 + 100.0);
  EXPECT_EQ(log.watermark(NodeId{2}), 2u);
  // Everyone holds everything: the log compacts to empty.
  EXPECT_EQ(log.base_seq(), 2u);
  EXPECT_EQ(log.retained(), 0u);
}

TEST(ReplicaLog, RollbackUndoesSuffixInReverseAndClampsWatermarks) {
  ReplicaLog log;
  log.add_replica(NodeId{1});
  log.add_replica(NodeId{2});
  workloads::TaskSpec a, b;
  a.id = TaskId{10};
  b.id = TaskId{11};
  log.append(complete_record(NodeId{7}, {a}));
  const gridsim::ChurnTimeline only_2({}, {NodeId{1}});
  gridsim::LivenessCursor live(only_2);
  log.flush(live, Seconds{0.0});  // node 2 holds seq 0
  log.append(complete_record(NodeId{7}, {b}));
  log.append(complete_record(NodeId{8}, {}));

  // Promote node 1 (watermark 0): every record rolls back, newest first.
  std::vector<NodeId> undone;
  log.rollback_to(log.watermark(NodeId{1}), [&](const ReplicaLog::Record& r) {
    undone.push_back(r.node);
  });
  ASSERT_EQ(undone.size(), 3u);
  EXPECT_EQ(undone[0], NodeId{8});
  EXPECT_EQ(undone[1], NodeId{7});
  EXPECT_EQ(undone[2], NodeId{7});
  EXPECT_EQ(log.end_seq(), 0u);
  // Node 2 cannot keep records the authority retracted.
  EXPECT_EQ(log.watermark(NodeId{2}), 0u);
}

TEST(ReplicaLog, ReRecruitSupersedesHistoryWithSnapshot) {
  ReplicaLog log;
  log.add_replica(NodeId{1});
  log.append(complete_record(NodeId{7}, {}));
  EXPECT_EQ(log.watermark(NodeId{1}), 0u);
  log.add_replica(NodeId{1});  // fresh snapshot shipped
  EXPECT_EQ(log.watermark(NodeId{1}), 1u);
  log.remove_replica(NodeId{1});
  // No registered standby: history is dead weight and compacts away.
  EXPECT_EQ(log.retained(), 0u);
  EXPECT_EQ(log.base_seq(), 1u);
}

TEST(ReplicaLog, RollbackRevertsACheckpointUnderTheChunksLifelongKey) {
  // A checkpoint logged while the chunk computed must still roll back
  // after the chunk moved on to its output phase before the crash: the
  // record names the ledger key, which the phase change kept.
  ChunkLedger ledger;
  ChunkLedger::Entry e;
  e.node = NodeId{3};
  e.tasks.resize(3);
  ledger.record(10, std::move(e));
  ledger.advance(10);  // input -> compute
  ReplicaLog log;
  log.add_replica(NodeId{1});
  ASSERT_TRUE(ledger.checkpoint(10, 2));
  ReplicaLog::Record ckpt;
  ckpt.kind = ReplicaRecordKind::Checkpoint;
  ckpt.token = 10;
  ckpt.prev_mark = 0;
  ckpt.new_mark = 2;
  log.append(ckpt);
  ledger.advance(10);  // compute -> output
  std::vector<core::OpToken> undone;
  log.rollback_to(0, [&](const ReplicaLog::Record& r) {
    undone.push_back(r.token);
    ledger.revert_checkpoint(r.token, r.prev_mark);
  });
  ASSERT_EQ(undone.size(), 1u);
  EXPECT_EQ(undone[0], 10u);
  EXPECT_EQ(ledger.checkpointed(10), 0u);
}

TEST(FailoverCoordinator, PruneDropsOutageSurvivingCorpsesOnceFarmerIsBack) {
  FailoverCoordinator::Params p;
  p.standby_count = 2;
  FailoverCoordinator c(p, FailureDetector::Params{}, NodeId{0}, Seconds{0.0});
  c.recruit(NodeId{1}, 64.0);
  c.recruit(NodeId{2}, 64.0);

  // Outage: standby 1 dies mid-outage and stays registered (it could
  // rejoin and resume from its watermark); standby 2 is promoted.
  ASSERT_TRUE(c.farmer_leaving(Seconds{10.0}));
  c.standby_lost(NodeId{1});
  EXPECT_TRUE(c.is_standby(NodeId{1}));
  c.complete_promotion(NodeId{2}, Seconds{12.0});

  // Dead node 1 still occupies a registry slot: without pruning the
  // deficit under-counts and its stale watermark pins compaction.
  EXPECT_EQ(c.standby_deficit(), 1u);
  const gridsim::ChurnTimeline timeline(
      {{Seconds{11.0}, ChurnEventKind::Crash, NodeId{1}}});
  gridsim::LivenessCursor live(timeline);
  c.prune_dead_standbys(live, Seconds{12.0});
  EXPECT_FALSE(c.is_standby(NodeId{1}));
  EXPECT_EQ(c.standby_deficit(), 2u);  // both slots open for live recruits
}

TEST(ChunkLedgerFailover, RevertCheckpointLowersMarkWithoutCounters) {
  ChunkLedger ledger;
  workloads::TaskSpec t;
  t.id = TaskId{1};
  t.work = Mops{10.0};
  ledger.record(1, {NodeId{3}, {t, t, t}, Seconds{0.0}, Mops{30.0}});
  EXPECT_TRUE(ledger.checkpoint(1, 2, 64.0));
  const std::size_t checkpoints = ledger.checkpoints();
  const double shipped = ledger.checkpoint_state_bytes();
  EXPECT_TRUE(ledger.revert_checkpoint(1, 1));
  EXPECT_EQ(ledger.checkpointed(1), 1u);
  EXPECT_FALSE(ledger.revert_checkpoint(1, 1));  // already at or below
  EXPECT_EQ(ledger.checkpoints(), checkpoints);  // shipping really happened
  EXPECT_DOUBLE_EQ(ledger.checkpoint_state_bytes(), shipped);
}

// ------------------------------------------------------------- farm planted

workloads::TaskSet tasks(std::size_t n, std::uint64_t seed = 42) {
  workloads::TaskSetParams p;
  p.count = n;
  p.mean_mops = 100.0;
  p.cv = 0.5;
  p.seed = seed;
  return workloads::make_task_set(p);
}

constexpr double kHeartbeat = 1.0;
constexpr double kTimeout = 5.0;
constexpr double kHandshake = 2.0;

/// Runs record into `tel`, at the detail tier by default:
/// expect_exactly_once reads the per-task trace records.
FarmParams failover_params(obs::Telemetry& tel, std::size_t standbys = 1) {
  FarmParams p = core::make_adaptive_farm_params();
  p.telemetry = &tel;
  p.chunk_size = 2;
  p.resilience.enabled = true;
  p.resilience.detector.heartbeat_period = Seconds{kHeartbeat};
  p.resilience.detector.timeout = Seconds{kTimeout};
  p.resilience.failover.standby_count = standbys;
  p.resilience.failover.handshake = Seconds{kHandshake};
  return p;
}

/// 7 equal nodes, no joiners; `crashes` = (node, at, rejoin_at or <0).
gridsim::Grid planted_grid(
    const std::vector<std::tuple<std::uint64_t, double, double>>& crashes,
    bool farmer_leaves_at_40 = false) {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (int i = 0; i < 7; ++i) b.add_node(s, 100.0);
  gridsim::Grid grid = b.build();
  std::vector<gridsim::ChurnEvent> events;
  for (const auto& [node, at, rejoin] : crashes) {
    const NodeId n{node};
    const double until = rejoin > 0.0 ? rejoin : at + 2e4;
    grid.node(n).add_downtime({Seconds{at}, Seconds{until}});
    events.push_back({Seconds{at}, ChurnEventKind::Crash, n});
    if (rejoin > 0.0)
      events.push_back({Seconds{rejoin}, ChurnEventKind::Rejoin, n});
  }
  if (farmer_leaves_at_40)
    events.push_back({Seconds{40.0}, ChurnEventKind::Leave, NodeId{0}});
  grid.set_churn(gridsim::ChurnTimeline(std::move(events)));
  return grid;
}

/// Every task completes exactly once net of retractions: per task,
/// TaskCompleted events minus TaskResultLost events is exactly 1.
void expect_exactly_once(const FarmReport& report, std::size_t total) {
  EXPECT_EQ(report.tasks_completed + report.calibration_tasks, total);
  std::unordered_map<std::uint64_t, long> net;
  for (const auto& e : report.trace.events()) {
    if (e.kind == TraceEventKind::TaskCompleted) ++net[e.task.value];
    if (e.kind == TraceEventKind::TaskResultLost) --net[e.task.value];
  }
  EXPECT_EQ(net.size(), total);
  for (const auto& [task_id, n] : net) {
    SCOPED_TRACE(::testing::Message() << "task=" << task_id);
    EXPECT_EQ(n, 1);
  }
}

TEST(FarmerFailover, CrashPromotesLowestIdStandbyWithinBound) {
  const gridsim::Grid grid = planted_grid({{0, 40.0, -1.0}});
  SimBackend backend(grid);
  const workloads::TaskSet ts = tasks(500);
  obs::Telemetry tel;
  const FarmReport report =
      TaskFarm(failover_params(tel)).run(backend, grid, grid.node_ids(), ts);

  expect_exactly_once(report, 500u);
  EXPECT_EQ(report.resilience.failovers, 1u);
  EXPECT_GE(report.resilience.standby_recruits, 2u);  // initial + replacement
  EXPECT_GT(report.resilience.replication_records, 0u);
  EXPECT_GT(report.resilience.replication_bytes, 0.0);
  EXPECT_GT(report.resilience.failover_latency_s, 0.0);

  // Deterministic promotion: the standby was the lowest-id live non-farmer
  // (node 1), and it was promoted within timeout + heartbeat + handshake.
  ASSERT_EQ(report.trace.count(TraceEventKind::FarmerPromoted), 1u);
  for (const auto& e : report.trace.events()) {
    if (e.kind != TraceEventKind::FarmerPromoted) continue;
    EXPECT_EQ(e.node, NodeId{1});
    EXPECT_EQ(e.note, "prompt");
    EXPECT_LE(e.at.value, 40.0 + kTimeout + kHeartbeat + kHandshake + 1e-6);
  }
  EXPECT_GE(report.trace.count(TraceEventKind::FarmerCrashDetected), 1u);
  EXPECT_GE(report.trace.count(TraceEventKind::StandbyRecruited), 2u);
}

TEST(FarmerFailover, CompletionsRacingTheCrashAreRolledBackAndRerun) {
  // The farmer dies just before a heartbeat tick, so results accepted since
  // the last flush are unreplicated: they must be retracted, re-queued and
  // completed again under the new farmer — never double-counted.
  const gridsim::Grid grid = planted_grid({{0, 40.9, -1.0}});
  SimBackend backend(grid);
  const workloads::TaskSet ts = tasks(500, 7);
  obs::Telemetry tel;
  const FarmReport report =
      TaskFarm(failover_params(tel)).run(backend, grid, grid.node_ids(), ts);

  expect_exactly_once(report, 500u);
  EXPECT_EQ(report.resilience.failovers, 1u);
  EXPECT_GT(report.resilience.results_rolled_back, 0u);
  EXPECT_EQ(report.trace.count(TraceEventKind::TaskResultLost),
            report.resilience.results_rolled_back);
}

TEST(FarmerFailover, DoubleCrashPromotesTwice) {
  // The first successor (node 1) dies long after taking over; the
  // replacement standby recruited at its promotion takes over in turn.
  const gridsim::Grid grid = planted_grid({{0, 40.0, -1.0}, {1, 120.0, -1.0}});
  SimBackend backend(grid);
  const workloads::TaskSet ts = tasks(900, 3);
  obs::Telemetry tel;
  const FarmReport report =
      TaskFarm(failover_params(tel)).run(backend, grid, grid.node_ids(), ts);

  expect_exactly_once(report, 900u);
  EXPECT_EQ(report.resilience.failovers, 2u);
  EXPECT_EQ(report.trace.count(TraceEventKind::FarmerPromoted), 2u);
  EXPECT_GE(report.resilience.standby_recruits, 3u);
}

TEST(FarmerFailover, CrashDuringPromotionFallsToNextStandby) {
  // Node 0 dies at 40; detection lands at 46 and node 1 starts its
  // handshake.  Node 1 dies at 47 — mid-handshake — so the promotion is
  // abandoned and node 2 (the second standby) takes over instead.
  const gridsim::Grid grid = planted_grid({{0, 40.0, -1.0}, {1, 47.0, -1.0}});
  SimBackend backend(grid);
  const workloads::TaskSet ts = tasks(500, 11);
  obs::Telemetry tel;
  const FarmReport report =
      TaskFarm(failover_params(tel, 2)).run(backend, grid, grid.node_ids(), ts);

  expect_exactly_once(report, 500u);
  EXPECT_EQ(report.resilience.failovers, 1u);
  ASSERT_EQ(report.trace.count(TraceEventKind::FarmerPromoted), 1u);
  bool aborted_seen = false;
  for (const auto& e : report.trace.events()) {
    if (e.kind == TraceEventKind::FarmerCrashDetected &&
        e.note == "died during promotion")
      aborted_seen = true;
    if (e.kind == TraceEventKind::FarmerPromoted) {
      EXPECT_EQ(e.node, NodeId{2});
    }
  }
  EXPECT_TRUE(aborted_seen);
}

TEST(FarmerFailover, AnnouncedLeaveHandsOverWithoutLoss) {
  const gridsim::Grid grid = planted_grid({}, /*farmer_leaves_at_40=*/true);
  SimBackend backend(grid);
  const workloads::TaskSet ts = tasks(500, 5);
  obs::Telemetry tel;
  const FarmReport report =
      TaskFarm(failover_params(tel)).run(backend, grid, grid.node_ids(), ts);

  expect_exactly_once(report, 500u);
  EXPECT_EQ(report.resilience.failovers, 1u);
  // An announced departure flushes before handover: nothing rolls back.
  EXPECT_EQ(report.resilience.results_rolled_back, 0u);
  bool announced = false;
  for (const auto& e : report.trace.events())
    if (e.kind == TraceEventKind::FarmerCrashDetected &&
        e.note == "announced departure")
      announced = true;
  EXPECT_TRUE(announced);
}

TEST(FarmerFailover, FarmerRejoinRecoversWhenNoStandbyLives) {
  // Farmer and its only standby die together; no promotion is possible
  // until the farmer itself rejoins at t=60 and resumes with intact state.
  const gridsim::Grid grid = planted_grid({{0, 40.0, 60.0}, {1, 40.0, -1.0}});
  SimBackend backend(grid);
  const workloads::TaskSet ts = tasks(500, 13);
  obs::Telemetry tel;
  const FarmReport report =
      TaskFarm(failover_params(tel)).run(backend, grid, grid.node_ids(), ts);

  expect_exactly_once(report, 500u);
  EXPECT_EQ(report.resilience.failovers, 1u);
  bool recovered = false;
  for (const auto& e : report.trace.events())
    if (e.kind == TraceEventKind::FarmerPromoted) {
      EXPECT_EQ(e.node, NodeId{0});
      EXPECT_EQ(e.note, "self-recovery");
      recovered = true;
    }
  EXPECT_TRUE(recovered);
  EXPECT_EQ(report.resilience.results_rolled_back, 0u);
}

TEST(FarmerFailover, DisabledSubsystemKeepsFarmerReliableContract) {
  // standby_count == 0: the farmer is assumed reliable even on a churn
  // grid, exactly the pre-failover behaviour (worker churn still handled).
  const gridsim::Grid grid = planted_grid({{3, 40.0, -1.0}});
  SimBackend backend(grid);
  const workloads::TaskSet ts = tasks(400, 17);
  obs::Telemetry tel;
  FarmParams p = failover_params(tel, 0);
  const FarmReport report =
      TaskFarm(p).run(backend, grid, grid.node_ids(), ts);
  EXPECT_EQ(report.tasks_completed + report.calibration_tasks, 400u);
  EXPECT_EQ(report.resilience.failovers, 0u);
  EXPECT_EQ(report.resilience.standby_recruits, 0u);
  EXPECT_EQ(report.resilience.replication_records, 0u);
}

TEST(FarmerFailover, PerWorkerHandshakeSurfacesInReportAndSlowsPromotion) {
  // Same planted farmer crash, default vs triple handshake window: the
  // report carries each reconnect spend, and the longer window cannot
  // finish earlier.  (The name predates the flat handshake; a per-worker
  // term no longer exists.)
  const workloads::TaskSet ts = tasks(500);
  const auto run_with = [&](double handshake) {
    const gridsim::Grid grid = planted_grid({{0, 40.0, -1.0}});
    SimBackend backend(grid);
    obs::Telemetry tel;
    FarmParams p = failover_params(tel, 1);
    p.resilience.failover.handshake = Seconds{handshake};
    return TaskFarm(p).run(backend, grid, grid.node_ids(), ts);
  };
  const FarmReport flat = run_with(kHandshake);
  const FarmReport slow = run_with(3.0 * kHandshake);

  ASSERT_EQ(flat.resilience.failovers, 1u);
  ASSERT_EQ(slow.resilience.failovers, 1u);
  // One armed handshake each, paid in full.
  EXPECT_DOUBLE_EQ(flat.resilience.handshake_cost_s, kHandshake);
  EXPECT_DOUBLE_EQ(slow.resilience.handshake_cost_s, 3.0 * kHandshake);
  EXPECT_GE(slow.makespan.value, flat.makespan.value);
  expect_exactly_once(slow, 500);
}

}  // namespace
}  // namespace grasp::resil
