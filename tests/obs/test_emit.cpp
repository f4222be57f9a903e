// The emitter (one emit() per engine event, every sink derived from the
// per-kind table) and the emission fingerprint: seeded runs of every
// engine, reduced to digests of what they emitted — the TraceRecorder
// sequence (at, kind, node, task, value, note), its per-kind counts, every
// report field and the blame split of the span stream.  The expected
// digests pin the engines' observable output; any change to what an engine
// emits (or when) shows up here as a digest mismatch.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "core/hier_farm.hpp"
#include "core/pipeline.hpp"
#include "core/task_farm.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/critical_path.hpp"
#include "obs/emit.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "svc/grid_service.hpp"
#include "tests/fingerprint.hpp"
#include "workloads/applications.hpp"
#include "workloads/generators.hpp"

namespace grasp::obs {
namespace {

using gridsim::TraceEventKind;

class ManualClock final : public Clock {
 public:
  [[nodiscard]] double now_s() const override { return t; }
  double t = 0.0;
};

TEST(EmitTable, CrashKindsCarryTheBlameMarker) {
  for (const TraceEventKind k : {TraceEventKind::NodeCrashDetected,
                                 TraceEventKind::FarmerCrashDetected})
    EXPECT_STREQ(kEmitTable[static_cast<std::size_t>(k)].instant,
                 "crash_detected");
  // Per-task kinds stay trace-only: they sit on the hot path.
  std::size_t per_task_rows = 0;
  for (const EmitRow& row : kEmitTable) {
    const bool hot = row.kind == TraceEventKind::TaskDispatched ||
                     row.kind == TraceEventKind::TaskCompleted ||
                     row.kind == TraceEventKind::ItemCompleted;
    EXPECT_EQ(row.per_task, hot) << gridsim::to_string(row.kind);
    if (!row.per_task) continue;
    ++per_task_rows;
    EXPECT_EQ(row.counter, nullptr);
    EXPECT_EQ(row.instant, nullptr);
    EXPECT_EQ(row.flight_kind, nullptr);
  }
  EXPECT_EQ(per_task_rows, 3u);
}

TEST(Emitter, OneEmitWritesEverySinkItsRowNames) {
  ManualClock clock;
  clock.t = 7.5;
  Telemetry tel;  // detail on
  tel.set_clock(&clock);
  FlightRecorder flight(8);
  const resil::ResilienceMetrics rm =
      resil::ResilienceMetrics::register_in(tel.metrics);
  gridsim::TraceRecorder trace;
  Emitter ev(clock, trace, tel.spans, &flight, &tel.metrics, &rm);

  ev.emit(TraceEventKind::NodeCrashDetected, NodeId{3}, TaskId::invalid(),
          0.0, "heartbeat timeout");
  ASSERT_EQ(trace.events().size(), 1u);
  EXPECT_DOUBLE_EQ(trace.events()[0].at.value, 7.5);
  EXPECT_EQ(trace.events()[0].node, NodeId{3});
  EXPECT_EQ(trace.events()[0].note, "heartbeat timeout");
  EXPECT_EQ(tel.metrics.counter_value(rm.crashes_detected), 1u);
  ASSERT_EQ(tel.spans.records().size(), 1u);
  const SpanRecord& instant = tel.spans.records()[0];
  EXPECT_TRUE(instant.instant);
  EXPECT_STREQ(instant.name, "crash_detected");
  EXPECT_STREQ(instant.detail, "heartbeat timeout");
  EXPECT_DOUBLE_EQ(instant.begin_s, 7.5);
  const auto notes = flight.events();
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_STREQ(notes[0].kind, "crash");
  EXPECT_STREQ(notes[0].name, "node_down");
  EXPECT_STREQ(notes[0].detail, "heartbeat timeout");
  EXPECT_EQ(notes[0].node, NodeId{3});

  // A per-task kind is a trace record and nothing else.
  clock.t = 8.0;
  ev.emit(TraceEventKind::TaskCompleted, NodeId{3}, TaskId{11}, 2.0);
  EXPECT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.count(TraceEventKind::TaskCompleted), 1u);
  EXPECT_EQ(tel.spans.records().size(), 1u);
  EXPECT_EQ(flight.seen(), 1u);
}

TEST(Emitter, DetailOffKeepsTraceCountersAndFlight) {
  ManualClock clock;
  Telemetry tel(/*detail=*/false);
  tel.set_clock(&clock);
  FlightRecorder flight(8);
  const resil::ResilienceMetrics rm =
      resil::ResilienceMetrics::register_in(tel.metrics);
  gridsim::TraceRecorder trace;
  Emitter ev(clock, trace, tel.spans, &flight, &tel.metrics, &rm);
  ev.emit(TraceEventKind::TaskResultLost, NodeId{1}, TaskId{4}, 3.0);
  ev.emit(TraceEventKind::ChunkRedispatched, NodeId{1}, TaskId{4});
  EXPECT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(tel.metrics.counter_value(rm.results_rolled_back), 1u);
  EXPECT_EQ(tel.metrics.counter_value(rm.tasks_redispatched), 1u);
  EXPECT_TRUE(tel.spans.records().empty());  // instants are detail tier
}

TEST(Emitter, DetailOffCountsPerTaskKindsWithoutStoringThem) {
  ManualClock clock;
  Telemetry tel(/*detail=*/false);
  tel.set_clock(&clock);
  gridsim::TraceRecorder trace;
  Emitter ev(clock, trace, tel.spans, nullptr);
  ev.emit(TraceEventKind::TaskDispatched, NodeId{1}, TaskId{4});
  ev.emit(TraceEventKind::CalibrationStarted, NodeId{1});
  ev.emit(TraceEventKind::TaskCompleted, NodeId{1}, TaskId{4}, 2.0);
  ev.emit(TraceEventKind::ItemCompleted, NodeId{1}, TaskId{5});
  EXPECT_EQ(trace.count(TraceEventKind::TaskDispatched), 1u);
  EXPECT_EQ(trace.count(TraceEventKind::TaskCompleted), 1u);
  EXPECT_EQ(trace.count(TraceEventKind::ItemCompleted), 1u);
  ASSERT_EQ(trace.events().size(), 1u);
  EXPECT_EQ(trace.events()[0].kind, TraceEventKind::CalibrationStarted);

  // The switch is read per event: turning detail on stores from then on.
  tel.set_detail_enabled(true);
  ev.emit(TraceEventKind::TaskCompleted, NodeId{1}, TaskId{6});
  EXPECT_EQ(trace.count(TraceEventKind::TaskCompleted), 2u);
  ASSERT_EQ(trace.events().size(), 2u);
  EXPECT_EQ(trace.events()[1].task, TaskId{6});
  EXPECT_FALSE(trace.all_stored(TraceEventKind::TaskCompleted));
}

TEST(Emitter, WithoutCountersOrFlightOnlyTraceAndSpansAreWritten) {
  ManualClock clock;
  SpanRecorder spans;
  spans.set_clock(&clock);
  gridsim::TraceRecorder trace;
  Emitter ev(clock, trace, spans, nullptr);
  ev.emit(TraceEventKind::FarmerCrashDetected, NodeId{2}, TaskId::invalid(),
          1.0);
  EXPECT_EQ(trace.count(TraceEventKind::FarmerCrashDetected), 1u);
  ASSERT_EQ(spans.records().size(), 1u);
  EXPECT_STREQ(spans.records()[0].name, "crash_detected");
  EXPECT_DOUBLE_EQ(spans.records()[0].value, 1.0);
}

using test::Digest;
using test::trace_digest;

std::string count_digest(const gridsim::TraceRecorder& trace) {
  Digest d;
  for (std::size_t k = 0;
       k <= static_cast<std::size_t>(TraceEventKind::TaskResultLost); ++k)
    d.add(static_cast<std::uint64_t>(
        trace.count(static_cast<TraceEventKind>(k))));
  return d.hex();
}

void add_resilience(Digest& d, const resil::ResilienceReport& r) {
  d.add(std::uint64_t{r.crashes_detected})
      .add(std::uint64_t{r.leaves})
      .add(std::uint64_t{r.joins})
      .add(std::uint64_t{r.admissions})
      .add(std::uint64_t{r.rejections})
      .add(std::uint64_t{r.evictions})
      .add(std::uint64_t{r.chunks_lost})
      .add(std::uint64_t{r.tasks_redispatched})
      .add(std::uint64_t{r.zombie_completions})
      .add(r.wasted_mops)
      .add(std::uint64_t{r.checkpoints})
      .add(std::uint64_t{r.tasks_recovered})
      .add(r.recovered_mops)
      .add(r.checkpoint_state_bytes)
      .add(std::uint64_t{r.failovers})
      .add(r.failover_latency_s)
      .add(std::uint64_t{r.standby_recruits})
      .add(std::uint64_t{r.results_rolled_back})
      .add(std::uint64_t{r.replication_records})
      .add(r.replication_bytes)
      .add(r.handshake_cost_s);
}

std::string report_digest(const core::FarmReport& r) {
  Digest d;
  d.add(r.makespan.value)
      .add(std::uint64_t{r.tasks_completed})
      .add(std::uint64_t{r.calibration_tasks})
      .add(std::uint64_t{r.recalibrations})
      .add(std::uint64_t{r.reissues})
      .add(std::uint64_t{r.chunk_resizes})
      .add(std::uint64_t{r.monitor_samples})
      .add(std::uint64_t{r.rounds})
      .add(r.final_baseline_spm);
  for (const NodeId n : r.final_chosen) d.add(n.value);
  add_resilience(d, r.resilience);
  return d.hex();
}

std::string report_digest(const core::PipelineReport& r) {
  Digest d;
  d.add(r.makespan.value)
      .add(std::uint64_t{r.items_completed})
      .add(std::uint64_t{r.remaps})
      .add(std::uint64_t{r.replications})
      .add(std::uint64_t{r.rounds})
      .add(r.mean_latency_s)
      .add(r.p95_latency_s)
      .add(std::uint64_t{r.output_in_order});
  for (const auto& s : r.stages)
    d.add(s.stage.value)
        .add(s.node.value)
        .add(std::uint64_t{s.replicas})
        .add(std::uint64_t{s.items})
        .add(s.mean_service_s)
        .add(s.busy_fraction);
  for (const NodeId n : r.final_mapping) d.add(n.value);
  add_resilience(d, r.resilience);
  return d.hex();
}

std::string report_digest(const core::HierFarmReport& r) {
  Digest d;
  d.add(r.makespan.value)
      .add(std::uint64_t{r.tasks_completed})
      .add(std::uint64_t{r.calibration_tasks})
      .add(std::uint64_t{r.shards})
      .add(std::uint64_t{r.root_events})
      .add(std::uint64_t{r.shard_events})
      .add(std::uint64_t{r.monitor_rounds})
      .add(std::uint64_t{r.reduction_messages})
      .add(std::uint64_t{r.recalibrations})
      .add(std::uint64_t{r.promotions})
      .add(std::uint64_t{r.redispatched})
      .add(std::uint64_t{r.results_lost})
      .add(std::uint64_t{r.zombie_completions});
  for (const auto& s : r.shard_summaries)
    d.add(s.sub_farmer.value)
        .add(std::uint64_t{s.workers})
        .add(std::uint64_t{s.tasks_completed})
        .add(std::uint64_t{s.grants})
        .add(std::uint64_t{s.events})
        .add(std::uint64_t{s.promotions})
        .add(std::uint64_t{s.redispatched})
        .add(s.capacity_mops);
  return d.hex();
}

void add_breakdown(Digest& d, const BlameBreakdown& b) {
  d.add(b.calibration_s)
      .add(b.dispatch_wait_s)
      .add(b.compute_s)
      .add(b.detection_recovery_s)
      .add(b.failover_s)
      .add(b.idle_tail_s);
}

/// Per-cause blame seconds of the whole run, every grafted group and every
/// node row: the crash/rollback markers the engines emit steer the idle-gap
/// split, so this pins the marker column as the blame analysis reads it.
std::string blame_digest(const Telemetry& tel, double makespan_s) {
  const BlameReport blame = analyze_blame(tel.spans.records(), makespan_s);
  Digest d;
  add_breakdown(d, blame.total);
  for (const auto& g : blame.groups) {
    d.add(g.key).add(g.window_s);
    add_breakdown(d, g.blame);
  }
  for (const auto& g : blame.nodes) {
    d.add(g.key).add(g.window_s);
    add_breakdown(d, g.blame);
  }
  return d.hex();
}

struct Fingerprint {
  std::string trace, counts, report, blame;
};

void expect_fingerprint(const Fingerprint& got, const Fingerprint& want) {
  EXPECT_EQ(got.trace, want.trace) << "trace sequence";
  EXPECT_EQ(got.counts, want.counts) << "per-kind counts";
  EXPECT_EQ(got.report, want.report) << "report fields";
  EXPECT_EQ(got.blame, want.blame) << "blame seconds";
}

workloads::TaskSet task_set(std::size_t n, double mean_mops, double cv,
                            std::uint64_t seed) {
  workloads::TaskSetParams wl;
  wl.count = n;
  wl.mean_mops = mean_mops;
  wl.cv = cv;
  wl.seed = seed;
  return workloads::make_task_set(wl);
}

// TaskFarm with every emitting subsystem on: churn (nobody protected, the
// farmer included), checkpoints, a hot standby and a 1.5-period detection
// timeout, plus adaptive chunk sizing.  The digests were recorded under
// accrual detection, whose estimate sat at its 1.5-period floor on the
// simulator's evenly spaced heartbeats; the fixed 1.5 s timeout reproduces
// them.
TEST(EmitFingerprint, TaskFarmChurnCheckpointFailover) {
  gridsim::ChurnScenarioParams scenario;
  scenario.grid.node_count = 12;
  scenario.grid.dynamics = gridsim::Dynamics::Walk;
  scenario.grid.seed = 42;
  scenario.spare_nodes = 4;
  scenario.mtbf = 90.0;
  scenario.protected_prefix = 0;
  scenario.churn_seed = 49;
  gridsim::Grid grid = gridsim::make_churn_grid(scenario);

  core::FarmParams params = core::make_adaptive_farm_params();
  params.chunk_size = 4;
  params.resilience.enabled = true;
  params.resilience.detector.heartbeat_period = Seconds{1.0};
  params.resilience.detector.timeout = Seconds{1.5};
  params.resilience.checkpoint_period = Seconds{4.0};
  params.resilience.failover.standby_count = 1;
  params.resilience.failover.handshake = Seconds{2.0};
  params.adaptive_chunking = true;
  Telemetry tel;
  FlightRecorder flight(64);
  tel.flight = &flight;
  params.telemetry = &tel;

  core::SimBackend backend(grid);
  const core::FarmReport r = core::TaskFarm(params).run(
      backend, grid, grid.node_ids(), task_set(1200, 120.0, 1.0, 43));
  ASSERT_GT(r.resilience.crashes_detected, 0u);
  ASSERT_GT(r.resilience.failovers, 0u);
  ASSERT_GT(r.resilience.checkpoints, 0u);

  expect_fingerprint(
      {trace_digest(r.trace), count_digest(r.trace), report_digest(r),
       blame_digest(tel, r.makespan.value)},
      {"464912f91265cdc6", "54b4ae1cd8b36e09", "9ca367cbefa4b668",
       "e5cdb9d9f4c383c9"});
}

// HierFarm with a planted sub-farmer crash (shard 0's initial coordinator
// dies for good at t=12) and a worker crash in the other shard.
TEST(EmitFingerprint, HierFarmPlantedSubFarmerCrash) {
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
  const NodeId worker = plan[1].back();
  grid.node(victim).add_downtime({Seconds{12.0}, Seconds{1e9}});
  grid.node(worker).add_downtime({Seconds{20.0}, Seconds{1e9}});
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{12.0}, gridsim::ChurnEventKind::Crash, victim},
       {Seconds{20.0}, gridsim::ChurnEventKind::Crash, worker}}));

  core::HierFarmParams params;
  params.workers_per_shard = 4;
  params.detector.heartbeat_period = Seconds{1.0};
  params.detector.timeout = Seconds{4.0};
  params.standby_count = 2;
  params.promotion_handshake = Seconds{2.0};
  Telemetry tel;
  FlightRecorder flight(64);
  tel.flight = &flight;
  params.telemetry = &tel;

  core::SimBackend backend(grid);
  const core::HierFarmReport r = core::HierFarm(params).run(
      backend, grid, grid.node_ids(), task_set(160, 2000.0, 0.6, 17));
  ASSERT_EQ(r.promotions, 1u);
  ASSERT_GT(r.trace.count(TraceEventKind::NodeCrashDetected), 0u);

  expect_fingerprint(
      {trace_digest(r.trace), count_digest(r.trace), report_digest(r),
       blame_digest(tel, r.makespan.value)},
      {"fe7690ec34733b71", "98072fd734c2989f", "781d5f095052f884",
       "d016821a68924772"});
}

// The hier_farm example's scenario: 32 workers over an 8x speed spread in
// four shards, shard 0's sub-farmer dying for good at t=30.  Its in-flight
// chunks sit in different phases when the crash is detected, so the order
// the promotion abandons them in (last phase change first to last) shows
// in the re-dispatch order.
TEST(EmitFingerprint, HierFarmHeterogeneousSubFarmerCrash) {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  b.add_node(s, 100.0);  // root
  const double speeds[] = {50.0, 100.0, 200.0, 400.0};
  std::vector<NodeId> workers;
  std::vector<double> worker_speeds;
  for (std::uint64_t i = 0; i < 32; ++i) {
    b.add_node(s, speeds[i % 4]);
    workers.push_back(NodeId{i + 1});
    worker_speeds.push_back(speeds[i % 4]);
  }
  gridsim::Grid grid = b.build();
  const NodeId victim = core::plan_shards(workers, worker_speeds, 4)[0].front();
  grid.node(victim).add_downtime({Seconds{30.0}, Seconds{1e9}});
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{30.0}, gridsim::ChurnEventKind::Crash, victim}}));

  core::HierFarmParams params;
  params.workers_per_shard = 8;
  params.detector.heartbeat_period = Seconds{1.0};
  params.detector.timeout = Seconds{4.0};
  params.promotion_handshake = Seconds{2.0};
  Telemetry tel;
  params.telemetry = &tel;

  core::SimBackend backend(grid);
  const core::HierFarmReport r = core::HierFarm(params).run(
      backend, grid, grid.node_ids(), task_set(256, 2000.0, 0.6, 43));
  ASSERT_EQ(r.promotions, 1u);
  ASSERT_GT(r.redispatched, 0u);

  expect_fingerprint(
      {trace_digest(r.trace), count_digest(r.trace), report_digest(r),
       blame_digest(tel, r.makespan.value)},
      {"2739cd72f94354d4", "86fe9e6c53fc81e7", "24e2da252d43451c",
       "75f11db5cdbb9612"});
}

// HierFarm over two shards of 75 members each, so per-member state spans
// more than 64 positions: a load step on shard 1 drifts it into a
// recalibration, one worker crashes and rejoins inside the detector
// timeout (its chunk completes as a zombie), and a member at position 70
// crashes for good.
TEST(EmitFingerprint, HierFarmWideShardsRecalibrateAndZombie) {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  b.add_node(s, 100.0);  // the root
  std::vector<NodeId> workers;
  std::vector<double> speeds;
  for (std::uint64_t i = 1; i <= 150; ++i) {
    const double speed = 80.0 + 10.0 * static_cast<double>(i % 5);
    b.add_node(s, speed);
    workers.push_back(NodeId{i});
    speeds.push_back(speed);
  }
  gridsim::Grid grid = b.build();
  const auto plan = core::plan_shards(workers, speeds, 2);
  ASSERT_EQ(plan.size(), 2u);
  ASSERT_GT(plan[0].size(), 64u);
  ASSERT_GT(plan[1].size(), 64u);
  for (std::size_t i = 1; i < plan[1].size(); ++i)
    gridsim::inject_load_step_on(grid, plan[1][i], Seconds{40.0}, 3.0);
  const NodeId bouncer = plan[0][10];
  const NodeId victim = plan[1][70];
  grid.node(bouncer).add_downtime({Seconds{25.0}, Seconds{26.5}});
  grid.node(victim).add_downtime({Seconds{30.0}, Seconds{1e9}});
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{25.0}, gridsim::ChurnEventKind::Crash, bouncer},
       {Seconds{26.5}, gridsim::ChurnEventKind::Rejoin, bouncer},
       {Seconds{30.0}, gridsim::ChurnEventKind::Crash, victim}}));

  core::HierFarmParams params;
  params.workers_per_shard = 75;
  params.detector.heartbeat_period = Seconds{1.0};
  params.detector.timeout = Seconds{4.0};
  params.monitor_period = Seconds{5.0};
  Telemetry tel;
  FlightRecorder flight(64);
  tel.flight = &flight;
  params.telemetry = &tel;

  core::SimBackend backend(grid);
  const core::HierFarmReport r = core::HierFarm(params).run(
      backend, grid, grid.node_ids(), task_set(3000, 500.0, 0.5, 23));
  ASSERT_GT(r.recalibrations, 0u);
  ASSERT_GT(r.zombie_completions, 0u);
  ASSERT_GT(r.trace.count(TraceEventKind::NodeCrashDetected), 0u);

  expect_fingerprint(
      {trace_digest(r.trace), count_digest(r.trace), report_digest(r),
       blame_digest(tel, r.makespan.value)},
      {"6e8be4ba9c5c8f8a", "2ef7946dc6a515b2", "21cad8d24cdb77f8",
       "38f03344c5eb6c62"});
}

// Pipeline on a churning pool: a crash inside the initial calibration, a
// joiner, and a mid-run crash that forces a stage failover.  Both crashes
// leave a crash_detected marker, so nodes 2 and 5 each get a blame row.
TEST(EmitFingerprint, PipelineChurn) {
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

  core::PipelineParams params;
  params.monitor.period = Seconds{1.0};
  Telemetry tel;
  FlightRecorder flight(64);
  tel.flight = &flight;
  params.telemetry = &tel;

  core::SimBackend backend(grid);
  const core::PipelineReport r = core::Pipeline(params).run(
      backend, grid, grid.node_ids(),
      workloads::make_uniform_pipeline(4, 30.0, 1e4), 400);
  ASSERT_GE(r.resilience.crashes_detected, 2u);

  expect_fingerprint(
      {trace_digest(r.trace), count_digest(r.trace), report_digest(r),
       blame_digest(tel, r.makespan.value)},
      {"1662d53fc429650a", "de30c44a6613289f", "dc7d4e4616b1c881",
       "5be0a48dabb7be1a"});
}

// Two tenants sharing one pool through the GridService: the second
// arrives while the first is running.
TEST(EmitFingerprint, GridServiceTwoJobStream) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(8, 100.0);
  core::SimBackend backend(grid);
  Telemetry tel;  // tenants inherit its detail tier
  svc::GridService::Params sp;
  sp.telemetry = &tel;
  svc::GridService service(backend, grid, grid.node_ids(), sp);
  svc::JobOptions opt_a;
  opt_a.name = "tenant-a";
  opt_a.max_share = 0.5;
  svc::JobOptions opt_b;
  opt_b.name = "tenant-b";
  opt_b.max_share = 0.5;
  const svc::JobHandle a = service.submit(
      svc::FarmJob{core::make_adaptive_farm_params(),
                   task_set(120, 100.0, 0.6, 1)},
      opt_a);
  const svc::JobHandle b = service.submit_at(
      Seconds{5.0},
      svc::FarmJob{core::make_adaptive_farm_params(),
                   task_set(120, 100.0, 0.6, 2)},
      opt_b);
  service.wait_all();
  ASSERT_EQ(a.status(), svc::JobStatus::Completed);
  ASSERT_EQ(b.status(), svc::JobStatus::Completed);

  const core::FarmReport& ra = a.farm_report();
  const core::FarmReport& rb = b.farm_report();
  expect_fingerprint({trace_digest(ra.trace), count_digest(ra.trace),
                      report_digest(ra), ""},
                     {"6adde318bf10620b", "e6a3237dccfca025",
                      "bc058b98a3f76dc8", ""});
  expect_fingerprint({trace_digest(rb.trace), count_digest(rb.trace),
                      report_digest(rb), ""},
                     {"4e097d3844b7bc3a", "e6a3237dccfca025",
                      "c18388dfab3c4b6e", ""});
}

}  // namespace
}  // namespace grasp::obs
