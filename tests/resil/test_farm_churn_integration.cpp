// Integration: the adaptive farm under node churn.  The acceptance story of
// the resilience subsystem: crashes mid-run lose chunks, the farm completes
// 100% of tasks anyway, every lost chunk is re-dispatched exactly once, and
// joined nodes are admitted into the worker set.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "core/grasp.hpp"
#include "core/pipeline.hpp"
#include "core/task_farm.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/telemetry.hpp"
#include "workloads/applications.hpp"
#include "workloads/generators.hpp"

namespace grasp::core {
namespace {

workloads::TaskSet tasks(std::size_t n, double mops = 100.0,
                         std::uint64_t seed = 42) {
  workloads::TaskSetParams p;
  p.count = n;
  p.mean_mops = mops;
  p.cv = 0.5;
  p.seed = seed;
  return workloads::make_task_set(p);
}

// Planted scenario: 5 equal members + 1 spare.  Node 2 crashes at t=30 and
// never returns (its outage stalls any chunk it held); node 5 joins at t=60.
gridsim::Grid planted_grid() {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (int i = 0; i < 6; ++i) b.add_node(s, 100.0);
  gridsim::Grid grid = b.build();
  grid.node(NodeId{2}).add_downtime({Seconds{30.0}, Seconds{20030.0}});
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{30.0}, gridsim::ChurnEventKind::Crash, NodeId{2}},
       {Seconds{60.0}, gridsim::ChurnEventKind::Join, NodeId{5}}},
      {NodeId{5}}));
  return grid;
}

FarmParams resilient_params() {
  FarmParams p = make_adaptive_farm_params();
  p.chunk_size = 2;
  p.resilience.enabled = true;
  p.resilience.detector.heartbeat_period = Seconds{1.0};
  p.resilience.detector.timeout = Seconds{5.0};
  return p;
}

TEST(FarmChurn, CompletesAllTasksWithCrashMidRun) {
  const gridsim::Grid grid = planted_grid();
  SimBackend backend(grid);
  const workloads::TaskSet ts = tasks(400);
  const FarmReport report = TaskFarm(resilient_params())
                                .run(backend, grid, grid.node_ids(), ts);

  // 100% completion, no double counting.
  EXPECT_EQ(report.tasks_completed + report.calibration_tasks, 400u);
  EXPECT_EQ(report.trace.count(gridsim::TraceEventKind::TaskCompleted), 400u);

  // The crash was detected and its chunks re-dispatched.
  EXPECT_GE(report.resilience.crashes_detected, 1u);
  EXPECT_GE(report.resilience.tasks_redispatched, 1u);
  EXPECT_GE(report.resilience.chunks_lost, 1u);
  EXPECT_GT(report.resilience.wasted_mops, 0.0);
  EXPECT_GE(report.trace.count(gridsim::TraceEventKind::NodeCrashDetected),
            1u);

  // Exactly once: with a single crash no task is re-dispatched twice.
  std::unordered_map<std::uint64_t, std::size_t> redispatches;
  for (const auto& e : report.trace.events())
    if (e.kind == gridsim::TraceEventKind::ChunkRedispatched)
      ++redispatches[e.task.value];
  EXPECT_FALSE(redispatches.empty());
  for (const auto& [task_id, count] : redispatches) {
    (void)task_id;
    EXPECT_EQ(count, 1u);
  }

  // The joiner was probed and admitted into the worker set.
  EXPECT_GE(report.resilience.joins, 1u);
  EXPECT_GE(report.resilience.admissions, 1u);
  EXPECT_EQ(report.trace.count(gridsim::TraceEventKind::NodeAdmitted), 1u);
  bool joiner_in_set = false;
  for (const NodeId n : report.final_chosen)
    if (n == NodeId{5}) joiner_in_set = true;
  EXPECT_TRUE(joiner_in_set);
  // ...and the corpse is not.
  for (const NodeId n : report.final_chosen) EXPECT_NE(n, NodeId{2});

  // Detection, not zombie-waiting: the farm finished in scenario time.
  EXPECT_LT(report.makespan.value, 500.0);
}

TEST(FarmChurn, DeterministicUnderChurn) {
  auto once = [] {
    const gridsim::Grid grid = planted_grid();
    SimBackend backend(grid);
    return TaskFarm(resilient_params())
        .run(backend, grid, grid.node_ids(), tasks(300))
        .makespan;
  };
  EXPECT_DOUBLE_EQ(once().value, once().value);
}

TEST(FarmChurn, ResilientFarBeatsMembershipBlindFarm) {
  // The membership-blind farm (no detector, no straggler reissue) only
  // learns of the crash when the stalled chunk's zombie completion arrives
  // after the outage — four virtual hours late.
  const workloads::TaskSet ts = tasks(400);

  const gridsim::Grid grid_a = planted_grid();
  SimBackend backend_a(grid_a);
  const FarmReport resilient = TaskFarm(resilient_params())
                                   .run(backend_a, grid_a,
                                        grid_a.node_ids(), ts);

  const gridsim::Grid grid_b = planted_grid();
  SimBackend backend_b(grid_b);
  FarmParams blind = make_demand_farm_params();
  blind.chunk_size = 2;
  const FarmReport naive =
      TaskFarm(blind).run(backend_b, grid_b, grid_b.node_ids(), ts);

  // Both complete everything (the zombie test is the correctness floor)...
  EXPECT_EQ(resilient.tasks_completed + resilient.calibration_tasks, 400u);
  EXPECT_EQ(naive.tasks_completed + naive.calibration_tasks, 400u);
  // ...but the blind farm pays the whole outage.
  EXPECT_GT(naive.makespan.value, 20000.0);
  EXPECT_LT(resilient.makespan.value * 10.0, naive.makespan.value);
}

TEST(FarmChurn, GracefulLeaveDrainsWithoutLoss) {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (int i = 0; i < 4; ++i) b.add_node(s, 100.0);
  gridsim::Grid grid = b.build();
  // Node 3 announces departure at t=25; no downtime: it finishes in-flight.
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{25.0}, gridsim::ChurnEventKind::Leave, NodeId{3}}}));

  SimBackend backend(grid);
  const FarmReport report = TaskFarm(resilient_params())
                                .run(backend, grid, grid.node_ids(),
                                     tasks(200));
  EXPECT_EQ(report.tasks_completed + report.calibration_tasks, 200u);
  EXPECT_GE(report.resilience.leaves, 1u);
  // Graceful: nothing was lost, nothing re-dispatched.
  EXPECT_EQ(report.resilience.chunks_lost, 0u);
  EXPECT_EQ(report.resilience.tasks_redispatched, 0u);
  for (const NodeId n : report.final_chosen) EXPECT_NE(n, NodeId{3});
}

TEST(FarmChurn, PoissonChurnScenarioCompletesEverything) {
  gridsim::ChurnScenarioParams cp;
  cp.grid.node_count = 12;
  cp.grid.dynamics = gridsim::Dynamics::Stable;
  cp.grid.seed = 17;
  cp.spare_nodes = 3;
  cp.mtbf = 150.0;
  cp.horizon = Seconds{400.0};
  cp.churn_seed = 23;
  const gridsim::Grid grid = gridsim::make_churn_grid(cp);
  ASSERT_GT(grid.churn()->events().size(), 0u);

  SimBackend backend(grid);
  const FarmReport report = TaskFarm(resilient_params())
                                .run(backend, grid, grid.node_ids(),
                                     tasks(1500, 120.0, 5));
  EXPECT_EQ(report.tasks_completed + report.calibration_tasks, 1500u);
  EXPECT_EQ(report.trace.count(gridsim::TraceEventKind::TaskCompleted),
            1500u);
}

TEST(FarmChurn, GraspDriverSurfacesRecoveryPhases) {
  const gridsim::Grid grid = planted_grid();
  GraspProgram program("churny-sweep");
  program.use_task_farm(resilient_params()).with_tasks(tasks(300));
  const RunSummary summary = program.compile(grid).execute();
  ASSERT_TRUE(summary.farm.has_value());
  EXPECT_GE(summary.membership_transitions, 2u);  // crash + join at least
  bool has_recovery = false;
  for (const auto& p : summary.phases)
    if (p.phase == "recovery") has_recovery = true;
  EXPECT_TRUE(has_recovery);
}

TEST(FarmChurn, DispatchTimeDeathKeepsTheWaveInWorkerOrder) {
  // Node 1 (10x faster, so ranked first) returns its calibration probe at
  // ~0.1 s and crashes at 0.5 s, before the pass closes at ~1.0 s.  The
  // first dispatch wave finds it dead at the connection attempt; every
  // surviving worker still gets its chunk in that same wave, in worker
  // order.  (The idle pick steps onto the position the dead worker
  // vacated, not past it.)
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  b.add_node(s, 100.0);
  b.add_node(s, 1000.0);
  for (int i = 0; i < 4; ++i) b.add_node(s, 100.0);
  gridsim::Grid grid = b.build();
  grid.node(NodeId{1}).add_downtime({Seconds{0.5}, Seconds{20000.5}});
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{0.5}, gridsim::ChurnEventKind::Crash, NodeId{1}}}));
  FarmParams p = resilient_params();
  p.chunk_size = 1;
  obs::Telemetry tel;  // detail tier: the wave is read off the dispatches
  p.telemetry = &tel;
  workloads::TaskSetParams tp;
  tp.count = 60;
  tp.mean_mops = 100.0;
  tp.cv = 0.0;
  tp.seed = 1;
  SimBackend backend(grid);
  const FarmReport report = TaskFarm(p).run(backend, grid, grid.node_ids(),
                                            workloads::make_task_set(tp));

  const auto& events = report.trace.events();
  const auto death =
      std::find_if(events.begin(), events.end(), [](const auto& e) {
        return e.kind == gridsim::TraceEventKind::NodeCrashDetected;
      });
  ASSERT_NE(death, events.end());
  EXPECT_EQ(death->node, NodeId{1});
  EXPECT_EQ(death->note, "dispatch failed");
  std::vector<NodeId> wave;
  for (auto it = death; it != events.end() && it->at == death->at; ++it)
    if (it->kind == gridsim::TraceEventKind::TaskDispatched &&
        it->note.empty())
      wave.push_back(it->node);
  EXPECT_EQ(wave, (std::vector<NodeId>{NodeId{0}, NodeId{2}, NodeId{3},
                                       NodeId{4}, NodeId{5}}));
  EXPECT_EQ(report.tasks_completed + report.calibration_tasks, 60u);
}

TEST(FarmChurn, QuiescentFarmDetectsCrashWithinTimerBound) {
  // Regression for the pre-timer event loop: suspects were only evaluated
  // when wait_next yielded a completion, so a farm whose sole in-flight
  // chunk sat on the crashed node blocked until the zombie surfaced at the
  // end of the outage.  The liveness tick must bound detection at
  // timeout + heartbeat_period even with no completions flowing.
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  b.add_node(s, 100.0);   // node 0: root + slow worker
  b.add_node(s, 1000.0);  // node 1: fast worker — takes the huge chunk
  gridsim::Grid grid = b.build();
  grid.node(NodeId{1}).add_downtime({Seconds{10.0}, Seconds{20010.0}});
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{10.0}, gridsim::ChurnEventKind::Crash, NodeId{1}}}));

  // Two small tasks feed calibration (one sample per node), then the fast
  // node draws the huge chunk while node 0 clears the last small task.
  // From then on the farm is quiescent: the only in-flight chunk is on the
  // node that crashes at t=10.
  workloads::TaskSet ts;
  ts.name = "quiescent-crash";
  const double works[] = {100.0, 100.0, 20000.0, 100.0};
  for (std::size_t i = 0; i < 4; ++i) {
    workloads::TaskSpec t;
    t.id = TaskId{i};
    t.work = Mops{works[i]};
    t.input = Bytes{1e3};
    t.output = Bytes{1e3};
    ts.tasks.push_back(t);
  }

  FarmParams p = resilient_params();
  p.chunk_size = 1;
  SimBackend backend(grid);
  const FarmReport report =
      TaskFarm(p).run(backend, grid, grid.node_ids(), ts);

  EXPECT_EQ(report.tasks_completed + report.calibration_tasks, 4u);
  ASSERT_GE(report.resilience.crashes_detected, 1u);

  // Detection-latency bound: crash at 10, timeout 5, period 1 (+ slack for
  // the tick that lands just after the suspicion threshold).
  double detected_at = -1.0;
  for (const auto& e : report.trace.events()) {
    if (e.kind == gridsim::TraceEventKind::NodeCrashDetected) {
      detected_at = e.at.value;
      break;
    }
  }
  ASSERT_GE(detected_at, 10.0);
  EXPECT_LE(detected_at, 10.0 + 5.0 + 1.0 + 0.5);

  // The huge chunk was re-run on the survivor, not waited out (outage ends
  // at t=20010; node 0 needs ~200 s for the re-run).
  EXPECT_GE(report.resilience.tasks_redispatched, 1u);
  EXPECT_LT(report.makespan.value, 1000.0);
}

TEST(PipelineChurn, QuiescentPipelineFailsOverWithinTickBound) {
  // The pipeline analogue: a single item is computing on the stage-1 node
  // when that node crashes.  Nothing else is in flight, so without the
  // liveness tick membership would only be polled when the stalled compute
  // finally surfaced at the end of the outage.
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (int i = 0; i < 3; ++i) b.add_node(s, 120.0);
  gridsim::Grid grid = b.build();
  grid.node(NodeId{1}).add_downtime({Seconds{12.0}, Seconds{20012.0}});
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{12.0}, gridsim::ChurnEventKind::Crash, NodeId{1}}}));

  // 2 stages over 3 nodes: stage 0 -> node 0 (also the source), stage 1 ->
  // node 1, spare node 2.  One 5 s-per-stage item: calibration ends ~5 s,
  // stage 0 computes until ~10 s, so at t=12 the item is mid-compute on
  // node 1 and nothing else is in flight.
  const auto spec = workloads::make_uniform_pipeline(2, 600.0, 1e3);
  SimBackend backend(grid);
  PipelineParams params;
  params.monitor.period = Seconds{1.0};
  params.membership_tick = Seconds{0.5};
  const PipelineReport report =
      Pipeline(params).run(backend, grid, grid.node_ids(), spec, 1);

  EXPECT_EQ(report.items_completed, 1u);
  EXPECT_GE(report.resilience.crashes_detected, 1u);
  EXPECT_GE(report.resilience.tasks_redispatched, 1u);
  for (const NodeId n : report.final_mapping) EXPECT_NE(n, NodeId{1});
  // Failover within a tick of the crash, re-ship + 5 s recompute — not the
  // 20000 s outage the completion-driven loop would have waited out.
  EXPECT_LT(report.makespan.value, 60.0);
}

TEST(PipelineChurn, CalibrationToleratesPoolAlreadyChurning) {
  // Churn during the *initial* calibration pass: node 5 crashes while
  // its probe is in flight (t=0.1) and node 6 joins before the mapping
  // exists (t=0.15).  The t=0 mapping must skip the corpse, admit the
  // joiner as a spare, and a later crash of a mapped node must still fail
  // over cleanly.
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (int i = 0; i < 7; ++i) b.add_node(s, 120.0);
  gridsim::Grid grid = b.build();
  grid.node(NodeId{5}).add_downtime({Seconds{0.1}, Seconds{20000.1}});
  grid.node(NodeId{2}).add_downtime({Seconds{40.0}, Seconds{20040.0}});
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{0.1}, gridsim::ChurnEventKind::Crash, NodeId{5}},
       {Seconds{0.15}, gridsim::ChurnEventKind::Join, NodeId{6}},
       {Seconds{40.0}, gridsim::ChurnEventKind::Crash, NodeId{2}}},
      {NodeId{6}}));

  const auto spec = workloads::make_uniform_pipeline(4, 30.0, 1e4);
  SimBackend backend(grid);
  PipelineParams params;
  params.monitor.period = Seconds{1.0};
  const PipelineReport report =
      Pipeline(params).run(backend, grid, grid.node_ids(), spec, 400);

  EXPECT_EQ(report.items_completed, 400u);
  EXPECT_TRUE(report.output_in_order);
  EXPECT_GE(report.resilience.crashes_detected, 2u);  // node 5 + node 2
  EXPECT_GE(report.resilience.joins, 1u);
  for (const NodeId n : report.final_mapping) {
    EXPECT_NE(n, NodeId{5});
    EXPECT_NE(n, NodeId{2});
  }
  EXPECT_LT(report.makespan.value, 2000.0);
}

TEST(PipelineChurn, JoinerDyingMidCalibrationIsNotAdmitted) {
  // A node that joins *and* crashes while calibration runs must not be
  // parked for admission — its crash event is consumed by the calibration
  // hook and would never be re-reported, so admitting it would hand later
  // failovers a corpse.
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (int i = 0; i < 7; ++i) b.add_node(s, 120.0);
  gridsim::Grid grid = b.build();
  grid.node(NodeId{6}).add_downtime({Seconds{0.2}, Seconds{20000.2}});
  grid.node(NodeId{2}).add_downtime({Seconds{40.0}, Seconds{20040.0}});
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{0.1}, gridsim::ChurnEventKind::Join, NodeId{6}},
       {Seconds{0.2}, gridsim::ChurnEventKind::Crash, NodeId{6}},
       {Seconds{40.0}, gridsim::ChurnEventKind::Crash, NodeId{2}}},
      {NodeId{6}}));

  const auto spec = workloads::make_uniform_pipeline(4, 30.0, 1e4);
  SimBackend backend(grid);
  PipelineParams params;
  params.monitor.period = Seconds{1.0};
  const PipelineReport report =
      Pipeline(params).run(backend, grid, grid.node_ids(), spec, 400);

  // The later crash fails over to the genuine spare, never onto node 6.
  EXPECT_EQ(report.items_completed, 400u);
  EXPECT_TRUE(report.output_in_order);
  for (const NodeId n : report.final_mapping) {
    EXPECT_NE(n, NodeId{6});
    EXPECT_NE(n, NodeId{2});
  }
  EXPECT_LT(report.makespan.value, 2000.0);
}

TEST(PipelineChurn, LateJoinerCanBecomeFailoverTarget) {
  // Regression: a node absent at t=0 joins mid-run and must be usable as a
  // spare when a later crash needs one — including by estimate_spm, which
  // reads monitor forecasts (the joiner must be watched) and calibration
  // fitness (the joiner has no sample; the fallback must kick in).
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (int i = 0; i < 6; ++i) b.add_node(s, 120.0);
  gridsim::Grid grid = b.build();
  grid.node(NodeId{2}).add_downtime({Seconds{60.0}, Seconds{20060.0}});
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{50.0}, gridsim::ChurnEventKind::Join, NodeId{5}},
       {Seconds{60.0}, gridsim::ChurnEventKind::Crash, NodeId{2}}},
      {NodeId{5}}));

  const auto spec = workloads::make_uniform_pipeline(5, 30.0, 1e4);
  SimBackend backend(grid);
  PipelineParams params;
  params.monitor.period = Seconds{1.0};
  const PipelineReport report =
      Pipeline(params).run(backend, grid, grid.node_ids(), spec, 600);

  EXPECT_EQ(report.items_completed, 600u);
  EXPECT_TRUE(report.output_in_order);
  EXPECT_GE(report.resilience.joins, 1u);
  EXPECT_GE(report.resilience.crashes_detected, 1u);
  for (const NodeId n : report.final_mapping) EXPECT_NE(n, NodeId{2});
  EXPECT_LT(report.makespan.value, 2000.0);
}

TEST(PipelineChurn, StageFailsOverToSpareAndKeepsOrder) {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (int i = 0; i < 6; ++i) b.add_node(s, 120.0);
  gridsim::Grid grid = b.build();
  // The pipeline maps 4 stages over 6 nodes, keeping spares.  Node 2
  // crashes mid-stream; whatever stage lives there must fail over.
  grid.node(NodeId{2}).add_downtime({Seconds{40.0}, Seconds{20040.0}});
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{40.0}, gridsim::ChurnEventKind::Crash, NodeId{2}}}));

  const auto spec = workloads::make_uniform_pipeline(4, 30.0, 1e4);
  SimBackend backend(grid);
  PipelineParams params;
  params.monitor.period = Seconds{1.0};
  const PipelineReport report =
      Pipeline(params).run(backend, grid, grid.node_ids(), spec, 300);

  EXPECT_EQ(report.items_completed, 300u);
  EXPECT_TRUE(report.output_in_order);
  EXPECT_GE(report.resilience.crashes_detected, 1u);
  EXPECT_LT(report.makespan.value, 2000.0);
  for (const NodeId n : report.final_mapping) EXPECT_NE(n, NodeId{2});
}

TEST(PipelineChurn, WedgedStageGivesUpAfterTheDownStagePatience) {
  // A pool of exactly spec.depth() nodes: stage 0 on node 0 (the source),
  // stage 1 on node 1.  Node 1 crashes at t=12 and never rejoins (no Join
  // event), and nobody else joins, so stage 1 is down with no spare.  Its
  // physical outage ends at t=40, so the compute stranded on it drains as
  // a zombie.  The liveness tick keeps the run alive while it waits for a
  // joiner, then declares it wedged once the fixed 1e4 s patience has
  // passed since the last activity (that zombie).
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (int i = 0; i < 2; ++i) b.add_node(s, 120.0);
  gridsim::Grid grid = b.build();
  grid.node(NodeId{1}).add_downtime({Seconds{12.0}, Seconds{40.0}});
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{12.0}, gridsim::ChurnEventKind::Crash, NodeId{1}}}));

  const auto spec = workloads::make_uniform_pipeline(2, 600.0, 1e3);
  ASSERT_EQ(grid.node_ids().size(), spec.depth());
  SimBackend backend(grid);
  PipelineParams params;
  params.monitor.period = Seconds{1.0};
  try {
    (void)Pipeline(params).run(backend, grid, grid.node_ids(), spec, 3);
    FAIL() << "a pipeline with a stage down for good must not complete";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "stage down with no spare and no joiner"),
              std::string::npos)
        << e.what();
  }
  // The zombie lands within a minute; the run gives up one patience
  // window after it, to within a tick.
  EXPECT_GT(backend.now().value, 1e4 + 40.0);
  EXPECT_LT(backend.now().value, 1e4 + 100.0);
}

}  // namespace
}  // namespace grasp::core
