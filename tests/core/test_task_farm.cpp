#include "core/task_farm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

#include "core/backend_sim.hpp"
#include "core/backend_thread.hpp"
#include "core/baselines.hpp"
#include "gridsim/churn.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/export_jsonl.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "support/log.hpp"
#include "workloads/generators.hpp"

namespace grasp::core {
namespace {

workloads::TaskSet tasks(std::size_t n, double mops = 100.0,
                         std::uint64_t seed = 42) {
  workloads::TaskSetParams p;
  p.count = n;
  p.mean_mops = mops;
  p.cv = 0.8;
  p.seed = seed;
  return workloads::make_task_set(p);
}

TEST(TaskFarm, CompletesEveryTaskExactlyOnce) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  SimBackend backend(grid);
  TaskFarm farm(make_adaptive_farm_params());
  const FarmReport report =
      farm.run(backend, grid, grid.node_ids(), tasks(200));
  EXPECT_EQ(report.tasks_completed + report.calibration_tasks, 200u);
  EXPECT_GT(report.makespan.value, 0.0);
  EXPECT_EQ(report.trace.count(gridsim::TraceEventKind::TaskCompleted),
            200u);
}

TEST(TaskFarm, MakespanNearIdealOnUniformDedicatedGrid) {
  // 4 equal dedicated 100-Mops nodes, 400 tasks x 100 Mops = 40000 Mops
  // => lower bound 100 s.  Demand-driven should be within ~25%.
  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  SimBackend backend(grid);
  FarmParams params = make_demand_farm_params();
  TaskFarm farm(params);
  const FarmReport report = farm.run(
      backend, grid, grid.node_ids(),
      tasks(400, 100.0));
  EXPECT_GT(report.makespan.value, 99.0);
  EXPECT_LT(report.makespan.value, 130.0);
}

TEST(TaskFarm, DeterministicOnSimBackend) {
  gridsim::ScenarioParams sp;
  sp.node_count = 8;
  sp.dynamics = gridsim::Dynamics::Mixed;
  sp.seed = 3;
  auto once = [&] {
    const gridsim::Grid grid = gridsim::make_grid(sp);
    SimBackend backend(grid);
    TaskFarm farm(make_adaptive_farm_params());
    return farm.run(backend, grid, grid.node_ids(), tasks(300)).makespan;
  };
  EXPECT_DOUBLE_EQ(once().value, once().value);
}

TEST(TaskFarm, FasterNodesDoMoreWork) {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  b.add_node(s, 400.0);
  b.add_node(s, 50.0);
  const gridsim::Grid grid = b.build();
  SimBackend backend(grid);
  FarmParams params = make_demand_farm_params();
  obs::Telemetry tel;  // detail tier: the split reads per-task records
  params.telemetry = &tel;
  TaskFarm farm(params);
  const FarmReport report =
      farm.run(backend, grid, grid.node_ids(), tasks(200));
  std::size_t fast = 0, slow = 0;
  for (const auto& e : report.trace.events()) {
    if (e.kind != gridsim::TraceEventKind::TaskCompleted) continue;
    (e.node == NodeId{0} ? fast : slow) += 1;
  }
  EXPECT_GT(fast, 4 * slow);
}

TEST(TaskFarm, RecalibratesAfterLoadStepOnChosenNodes) {
  // Dedicated planted grid: calibration picks the 3 fast nodes.  At t=40 the
  // fast nodes all degrade badly; Algorithm 2's min-trigger must fire.
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (int i = 0; i < 3; ++i) b.add_node(s, 300.0);
  for (int i = 0; i < 3; ++i) b.add_node(s, 150.0);
  gridsim::Grid grid = b.build();
  for (std::uint64_t i = 0; i < 3; ++i)
    gridsim::inject_load_step_on(grid, NodeId{i}, Seconds{40.0}, 9.0);

  SimBackend backend(grid);
  FarmParams params = make_adaptive_farm_params();
  params.calibration.select_count = 3;
  params.threshold.z = 2.0;
  TaskFarm farm(params);
  const FarmReport report =
      farm.run(backend, grid, grid.node_ids(), tasks(600, 200.0));
  EXPECT_GE(report.recalibrations, 1u);
  // After recalibration the chosen set must contain undegraded nodes.
  bool has_clean_node = false;
  for (const NodeId n : report.final_chosen)
    if (n.value >= 3) has_clean_node = true;
  EXPECT_TRUE(has_clean_node);
}

TEST(TaskFarm, AdaptiveBeatsNonAdaptiveUnderDegradation) {
  auto build = [] {
    gridsim::GridBuilder b;
    const SiteId s = b.add_site("a");
    for (int i = 0; i < 3; ++i) b.add_node(s, 300.0);
    for (int i = 0; i < 3; ++i) b.add_node(s, 150.0);
    gridsim::Grid grid = b.build();
    for (std::uint64_t i = 0; i < 3; ++i)
      gridsim::inject_load_step_on(grid, NodeId{i}, Seconds{40.0}, 9.0);
    return grid;
  };
  const workloads::TaskSet ts = tasks(600, 200.0);

  const gridsim::Grid grid_a = build();
  SimBackend backend_a(grid_a);
  FarmParams adaptive = make_adaptive_farm_params();
  adaptive.calibration.select_count = 3;
  const FarmReport a =
      TaskFarm(adaptive).run(backend_a, grid_a, grid_a.node_ids(), ts);

  const gridsim::Grid grid_b = build();
  SimBackend backend_b(grid_b);
  FarmParams frozen = make_adaptive_farm_params();
  frozen.calibration.select_count = 3;
  frozen.adaptation_enabled = false;
  frozen.reissue_stragglers = false;
  const FarmReport b =
      TaskFarm(frozen).run(backend_b, grid_b, grid_b.node_ids(), ts);

  EXPECT_LT(a.makespan.value, b.makespan.value);
}

TEST(TaskFarm, ChunkingReducesDispatches) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  FarmParams params = make_demand_farm_params();
  params.chunk_size = 10;
  SimBackend backend(grid);
  const FarmReport report =
      TaskFarm(params).run(backend, grid, grid.node_ids(), tasks(200));
  EXPECT_EQ(report.tasks_completed + report.calibration_tasks, 200u);
}

TEST(TaskFarm, AdaptiveChunkingResizesPerNodeOnHeterogeneousPool) {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  b.add_node(s, 500.0);
  b.add_node(s, 50.0);
  const gridsim::Grid grid = b.build();
  FarmParams params = make_demand_farm_params();
  params.adaptive_chunking = true;
  params.target_chunk_seconds = 10.0;
  SimBackend backend(grid);
  const FarmReport report =
      TaskFarm(params).run(backend, grid, grid.node_ids(), tasks(400, 50.0));
  EXPECT_GT(report.chunk_resizes, 0u);
  EXPECT_EQ(report.tasks_completed + report.calibration_tasks, 400u);
}

TEST(TaskFarm, StragglerReissueRescuesStuckTask) {
  // Node 1 goes down (effectively forever) right after dispatch; its task
  // must be duplicated onto another node so the farm still finishes.
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  b.add_node(s, 100.0);
  b.add_node(s, 100.0);
  gridsim::Grid grid = b.build();
  grid.node(NodeId{1}).add_downtime({Seconds{2.0}, Seconds{1e7}});

  FarmParams params = make_demand_farm_params();
  params.reissue_stragglers = true;
  params.straggler_factor = 3.0;
  params.adaptation_enabled = false;
  SimBackend backend(grid);
  const FarmReport report =
      TaskFarm(params).run(backend, grid, grid.node_ids(), tasks(20, 100.0));
  EXPECT_EQ(report.tasks_completed + report.calibration_tasks, 20u);
  EXPECT_GE(report.reissues, 1u);
  // Makespan must be far below the downtime horizon.
  EXPECT_LT(report.makespan.value, 1e6);
}

TEST(TaskFarm, TailStealDuplicatesSlowHoldersChunk) {
  // Two-node planted pool, one fast and one 5x slower, uniform work.  The
  // slow holder grinds through its chunk while the fast node idles with
  // the queue dry: the tail steal must duplicate that chunk onto the fast
  // node.  The task count is parity-sensitive: 10 tasks (8 after
  // calibration, 4 chunks of 2) leave the slow node holding a fresh chunk
  // exactly when the fast one idles.  The empty churn timeline turns the
  // resilience layer on without any membership events.
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  b.add_node(s, 100.0);
  b.add_node(s, 20.0);
  gridsim::Grid grid = b.build();
  grid.set_churn(gridsim::ChurnTimeline{{}});
  workloads::TaskSetParams wl;
  wl.count = 10;
  wl.mean_mops = 100.0;
  wl.cv = 0.0;
  wl.seed = 42;
  const workloads::TaskSet ts = workloads::make_task_set(wl);

  FarmParams p = make_demand_farm_params();
  p.reissue_stragglers = true;
  p.resilience.enabled = true;
  p.chunk_size = 2;
  {
    SimBackend backend(grid);
    const FarmReport r = TaskFarm(p).run(backend, grid, grid.node_ids(), ts);
    EXPECT_EQ(r.tasks_completed + r.calibration_tasks, 10u);
    EXPECT_GE(r.reissues, 1u);
  }
  // The chunk is not a straggler (it is on pace for its slow holder), so
  // the steal above was the tail-steal rule: a margin no idle node can
  // beat leaves the holder to finish alone.
  p.tail_steal_margin = 1e9;
  SimBackend backend(grid);
  const FarmReport r = TaskFarm(p).run(backend, grid, grid.node_ids(), ts);
  EXPECT_EQ(r.tasks_completed + r.calibration_tasks, 10u);
  EXPECT_EQ(r.reissues, 0u);
}

// EconFarm: the farm's reissue economics, the two fixed margins that decide
// when duplicating a chunk pays.  The straggler and tail-steal rules are
// independent, so a margin that suppresses every steal must never block a
// rescue.

TEST(EconFarm, BudgetNeverBlocksRescueOfStuckChunk) {
  // Node 1 seizes (downtime, not a crash: its heartbeats keep flowing so
  // the detector never fires).  Once the chunk ages past straggler_factor
  // times its expected time it must be reissued, even under a tail-steal
  // margin no idle node can beat.  The empty churn timeline turns the
  // resilience layer on without any membership events.
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  b.add_node(s, 100.0);
  b.add_node(s, 100.0);
  gridsim::Grid grid = b.build();
  grid.node(NodeId{1}).add_downtime({Seconds{2.0}, Seconds{1e7}});
  grid.set_churn(gridsim::ChurnTimeline{{}});
  workloads::TaskSetParams wl;
  wl.count = 20;
  wl.mean_mops = 100.0;
  wl.cv = 0.0;
  wl.seed = 42;

  FarmParams p = make_demand_farm_params();
  p.reissue_stragglers = true;
  p.resilience.enabled = true;
  p.tail_steal_margin = 1e9;
  SimBackend backend(grid);
  const FarmReport r = TaskFarm(p).run(backend, grid, grid.node_ids(),
                                       workloads::make_task_set(wl));
  EXPECT_EQ(r.tasks_completed + r.calibration_tasks, 20u);
  EXPECT_GE(r.reissues, 1u);
  // Finished by rescue, not by outliving the 1e7 s downtime.
  EXPECT_LT(r.makespan.value, 1e6);
}

TEST(EconFarm, ReissueTiesGoToTheOldestPhaseChange) {
  // Two equal slow nodes take equal chunks (tasks 4 and 5) at the instant
  // calibration ends, so when the fast node idles with the queue dry their
  // expected finishes tie exactly, and only the first in the sort is
  // relieved at once.  The tie goes to the chunk whose last phase change is
  // older: task 5's, when task 4's bigger input lands after it, although
  // task 4 was dispatched first.
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  b.add_node(s, 100.0);
  b.add_node(s, 20.0);
  b.add_node(s, 20.0);
  const gridsim::Grid grid = b.build();
  FarmParams p = make_demand_farm_params();
  p.reissue_stragglers = true;
  const auto first_reissued = [&](double task4_input) {
    workloads::TaskSet ts;
    for (const double input : {1e3, 1e3, 1e3, 1e3, task4_input, 1e3})
      ts.tasks.push_back({TaskId{ts.tasks.size()}, Mops{100.0}, Bytes{input},
                          Bytes{1e3}});
    SimBackend backend(grid);
    obs::Telemetry tel;  // detail tier: the premise reads the dispatches
    FarmParams detail = p;
    detail.telemetry = &tel;
    const FarmReport r =
        TaskFarm(detail).run(backend, grid, grid.node_ids(), ts);
    EXPECT_EQ(r.tasks_completed + r.calibration_tasks, 6u);
    std::vector<gridsim::TraceEvent> dispatched;
    TaskId reissued = TaskId::invalid();
    for (const auto& e : r.trace.events()) {
      if (e.kind == gridsim::TraceEventKind::TaskDispatched)
        dispatched.push_back(e);
      if (e.kind == gridsim::TraceEventKind::TaskReissued &&
          !reissued.is_valid())
        reissued = e.task;
    }
    // The premise: tasks 4 and 5 left together, 4 first, to the slow pair.
    EXPECT_EQ(dispatched.size(), 6u);
    if (dispatched.size() == 6u) {
      EXPECT_EQ(dispatched[4].task, TaskId{4});
      EXPECT_EQ(dispatched[4].node, NodeId{1});
      EXPECT_EQ(dispatched[5].task, TaskId{5});
      EXPECT_EQ(dispatched[5].node, NodeId{2});
      EXPECT_EQ(dispatched[4].at, dispatched[5].at);
    }
    return reissued;
  };
  EXPECT_EQ(first_reissued(4e6), TaskId{5});
  // Equal inputs land in dispatch order, so task 4 changed phase first.
  EXPECT_EQ(first_reissued(1e3), TaskId{4});
}

TEST(EconFarm, ValidationErrors) {
  // Break-even and non-finite margins are in TaskFarm.ValidationErrors;
  // here, a margin below break-even is rejected and one just above is not.
  FarmParams bad;
  bad.tail_steal_margin = 0.5;
  EXPECT_THROW(TaskFarm{bad}, std::invalid_argument);
  bad = FarmParams{};
  bad.straggler_factor = 0.5;
  EXPECT_THROW(TaskFarm{bad}, std::invalid_argument);
  FarmParams ok;
  ok.tail_steal_margin = 1.01;
  ok.straggler_factor = 1.01;
  EXPECT_NO_THROW(TaskFarm{ok});
}

TEST(TaskFarm, ValidationErrors) {
  const auto rejects = [](auto mutate) {
    FarmParams p;
    mutate(p);
    EXPECT_THROW(TaskFarm{p}, std::invalid_argument);
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  rejects([](FarmParams& p) { p.chunk_size = 0; });
  rejects([](FarmParams& p) { p.straggler_factor = 1.0; });
  // NaN would compare false against every bound and switch reissue off.
  rejects([&](FarmParams& p) { p.straggler_factor = nan; });
  rejects([&](FarmParams& p) { p.straggler_factor = inf; });
  // At exactly 1 the steal breaks even: every tail chunk would duplicate.
  rejects([](FarmParams& p) { p.tail_steal_margin = 1.0; });
  rejects([&](FarmParams& p) { p.tail_steal_margin = nan; });
  rejects([&](FarmParams& p) { p.tail_steal_margin = inf; });
  // A negative or NaN target would wrap through llround into a huge chunk.
  rejects([](FarmParams& p) { p.target_chunk_seconds = -1.0; });
  rejects([&](FarmParams& p) { p.target_chunk_seconds = nan; });
  rejects([&](FarmParams& p) { p.target_chunk_seconds = inf; });
  rejects([](FarmParams& p) {
    p.resilience.checkpoint_period = Seconds{-1.0};
  });
  rejects([&](FarmParams& p) { p.resilience.checkpoint_period = Seconds{nan}; });
  rejects([&](FarmParams& p) { p.resilience.checkpoint_period = Seconds{inf}; });
  // With resilience enabled, both detector fields must be finite and
  // positive: a NaN period would reach the detector's floor-to-integer
  // cast, an infinite timeout would turn detection off.
  for (const double bad : {nan, inf, 0.0, -1.0}) {
    SCOPED_TRACE(bad);
    rejects([&](FarmParams& p) {
      p.resilience.enabled = true;
      p.resilience.detector.heartbeat_period = Seconds{bad};
    });
    rejects([&](FarmParams& p) {
      p.resilience.enabled = true;
      p.resilience.detector.timeout = Seconds{bad};
    });
  }
  const auto with_standby = [](FarmParams& p) {
    p.resilience.failover.standby_count = 1;
  };
  rejects([&](FarmParams& p) {
    with_standby(p);
    p.resilience.failover.handshake = Seconds{-1.0};
  });
  rejects([&](FarmParams& p) {
    with_standby(p);
    p.resilience.failover.handshake = Seconds{nan};
  });
  // With resilience enabled, the pool's evict_ratio is checked here too,
  // not first when the engine builds its ElasticPool at start().
  for (const double bad : {nan, inf, -inf, -1.0}) {
    SCOPED_TRACE(bad);
    rejects([&](FarmParams& p) {
      p.resilience.enabled = true;
      p.resilience.pool.evict_ratio = bad;
    });
  }
  // A NaN or negative SLO bound would compare false against 0 and switch
  // its rule off silently; it is rejected even when no other rule is set.
  for (const double bad : {nan, -1.0, -inf}) {
    SCOPED_TRACE(bad);
    rejects([&](FarmParams& p) { p.slos.heartbeat_staleness_s = bad; });
    rejects([&](FarmParams& p) { p.slos.detection_latency_s = bad; });
    rejects([&](FarmParams& p) { p.slos.wasted_mops_rate = bad; });
    rejects([&](FarmParams& p) { p.slos.calibration_stall_s = bad; });
  }
  // 0 (off) and +inf (armed, never reached) stay legal, as do the large
  // finite bounds bench_micro's M7 arms every rule with.
  for (const double ok : {0.0, inf, 1e6, 1e12}) {
    SCOPED_TRACE(ok);
    FarmParams slo_ok;
    slo_ok.slos = {ok, ok, ok, ok};
    EXPECT_NO_THROW(TaskFarm{slo_ok});
  }
  // Zero target seconds is legal: every adaptive chunk clamps to 1 task.
  FarmParams zero_target;
  zero_target.target_chunk_seconds = 0.0;
  EXPECT_NO_THROW(TaskFarm{zero_target});

  const gridsim::Grid grid = gridsim::make_uniform_grid(2, 100.0);
  SimBackend backend(grid);
  TaskFarm farm(make_adaptive_farm_params());
  EXPECT_THROW((void)farm.run(backend, grid, {}, tasks(4)),
               std::invalid_argument);
}

TEST(TaskFarm, TaskBodyRunsExactlyOncePerTaskOnThreadBackend) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(3, 1000.0);
  std::atomic<int> executions{0};
  std::vector<std::atomic<int>> per_task(30);
  FarmParams params = make_demand_farm_params();
  params.monitor.period = Seconds{5.0};
  params.calibration.task_body = [&](const workloads::TaskSpec& t) {
    ++executions;
    ++per_task[t.id.value];
  };
  ThreadBackend::Params bp;
  bp.time_scale = 1e-4;
  ThreadBackend backend(grid, bp);
  const FarmReport report = TaskFarm(params).run(
      backend, grid, grid.node_ids(), tasks(30, 10.0));
  EXPECT_EQ(report.tasks_completed + report.calibration_tasks, 30u);
  EXPECT_EQ(executions.load(), 30);
  for (auto& count : per_task) EXPECT_EQ(count.load(), 1);
}

// The threading contract of obs/telemetry.hpp on real threads: task
// bodies run on ThreadBackend workers and log through the JSONL sink while
// the engine's thread records detail telemetry (registry, spans, flight
// ring) and the caller then writes to the same JsonlWriter.  Under TSan
// this proves no worker reaches the single-threaded registry or recorder.
TEST(TaskFarm, DetailTelemetryAndJsonlLogSinkOnThreadBackend) {
  constexpr std::size_t kTasks = 30;
  const gridsim::Grid grid = gridsim::make_uniform_grid(3, 1000.0);
  obs::Telemetry telemetry(true);
  obs::FlightRecorder flight(64);
  telemetry.flight = &flight;
  FarmParams params = make_demand_farm_params();
  params.monitor.period = Seconds{5.0};
  params.telemetry = &telemetry;
  params.calibration.task_body = [](const workloads::TaskSpec& t) {
    GRASP_LOG_INFO("task_body") << "ran task " << t.id.value;
  };
  std::ostringstream out;
  obs::JsonlWriter writer(out);
  struct SinkGuard {
    LogLevel level = log_level();
    explicit SinkGuard(obs::JsonlWriter& w) { obs::attach_log_sink(&w); }
    ~SinkGuard() {
      obs::attach_log_sink(nullptr);
      set_log_level(level);
    }
  } sink(writer);
  set_log_level(LogLevel::Off);  // the sink still receives Info and above
  ThreadBackend::Params bp;
  bp.time_scale = 1e-4;
  ThreadBackend backend(grid, bp);
  const FarmReport report = TaskFarm(params).run(
      backend, grid, grid.node_ids(), tasks(kTasks, 10.0));
  EXPECT_EQ(report.tasks_completed + report.calibration_tasks, kTasks);
  writer.write_metrics(telemetry.metrics.snapshot());
  writer.write_spans(telemetry.spans.records());

  std::istringstream lines(out.str());
  std::string line;
  std::size_t body_logs = 0, metrics = 0, spans = 0;
  while (std::getline(lines, line)) {
    std::string error;
    const auto doc = obs::parse_json(line, &error);
    ASSERT_TRUE(doc.has_value()) << error << " in line: " << line;
    const std::string& type = doc->find("type")->as_string();
    // The engine's own Info lines (calibration) share the stream.
    if (type == "log" && doc->find("component")->as_string() == "task_body")
      ++body_logs;
    if (type == "counter" || type == "histogram") ++metrics;
    if (type == "span") ++spans;
  }
  EXPECT_EQ(body_logs, kTasks);
  EXPECT_GT(metrics, 0u);
  EXPECT_GT(spans, 0u);
  const std::vector<obs::FlightEvent> notes = flight.events();
  EXPECT_TRUE(std::any_of(notes.begin(), notes.end(), [](const auto& e) {
    return std::string_view(e.name) == "farm_begin";
  }));
}

TEST(TaskFarm, TaskBodyIgnoredOnSimBackend) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(2, 100.0);
  std::atomic<int> executions{0};
  FarmParams params = make_demand_farm_params();
  params.calibration.task_body =
      [&](const workloads::TaskSpec&) { ++executions; };
  SimBackend backend(grid);
  const FarmReport report =
      TaskFarm(params).run(backend, grid, grid.node_ids(), tasks(20));
  EXPECT_EQ(report.tasks_completed + report.calibration_tasks, 20u);
  EXPECT_EQ(executions.load(), 0);  // the model is authoritative
}

TEST(TaskFarm, ReportAggregatesAreConsistent) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  SimBackend backend(grid);
  TaskFarm farm(make_adaptive_farm_params());
  const FarmReport report =
      farm.run(backend, grid, grid.node_ids(), tasks(100));
  EXPECT_GT(report.throughput(), 0.0);
  EXPECT_FALSE(report.final_chosen.empty());
  EXPECT_GT(report.monitor_samples, 0u);
  EXPECT_EQ(report.trace.count(gridsim::TraceEventKind::CalibrationStarted),
            1 + report.recalibrations);
}

}  // namespace
}  // namespace grasp::core
