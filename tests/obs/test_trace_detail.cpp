// Per-task trace records are stored only at the telemetry detail tier.
//
// Each engine runs twice on the same seeded scenario: once with no
// telemetry (or a detail-off one), once with detail on.  The two traces
// must agree on every per-kind count, and the default trace must hold
// exactly the detail trace's records minus the per-task kinds, in the same
// order.  So the detail switch decides what is stored and nothing else.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "core/hier_farm.hpp"
#include "core/pipeline.hpp"
#include "core/task_farm.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/emit.hpp"
#include "obs/telemetry.hpp"
#include "svc/grid_service.hpp"
#include "workloads/applications.hpp"
#include "workloads/generators.hpp"

namespace grasp::obs {
namespace {

using gridsim::TraceEvent;
using gridsim::TraceEventKind;
using gridsim::TraceRecorder;

bool per_task(TraceEventKind kind) {
  return kEmitTable[static_cast<std::size_t>(kind)].per_task;
}

void expect_same_event(const TraceEvent& a, const TraceEvent& b) {
  EXPECT_EQ(a.at.value, b.at.value);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.task, b.task);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.note, b.note);
}

void expect_tiers_agree(const TraceRecorder& plain,
                        const TraceRecorder& detail) {
  std::size_t per_task_events = 0;
  for (std::size_t k = 0; k < gridsim::kTraceEventKindCount; ++k) {
    const auto kind = static_cast<TraceEventKind>(k);
    EXPECT_EQ(plain.count(kind), detail.count(kind)) << to_string(kind);
    EXPECT_TRUE(detail.all_stored(kind)) << to_string(kind);
    if (per_task(kind)) per_task_events += plain.count(kind);
  }
  ASSERT_GT(per_task_events, 0u);

  std::vector<TraceEvent> coordination;
  for (const TraceEvent& e : detail.events())
    if (!per_task(e.kind)) coordination.push_back(e);
  ASSERT_EQ(plain.events().size(), coordination.size());
  for (std::size_t i = 0; i < coordination.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "record " << i);
    expect_same_event(plain.events()[i], coordination[i]);
  }
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

// TaskFarm on a churning pool with checkpoints and a hot standby.  The
// plain run has no telemetry at all.
TEST(TraceDetail, ChurnedTaskFarmStoresTheDetailTraceMinusPerTaskRecords) {
  gridsim::ChurnScenarioParams scenario;
  scenario.grid.node_count = 12;
  scenario.grid.dynamics = gridsim::Dynamics::Walk;
  scenario.grid.seed = 42;
  scenario.spare_nodes = 4;
  scenario.mtbf = 90.0;
  scenario.protected_prefix = 0;
  scenario.churn_seed = 49;
  const workloads::TaskSet tasks = task_set(1200, 120.0, 1.0, 43);

  const auto run = [&](Telemetry* tel) {
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
    params.telemetry = tel;
    core::SimBackend backend(grid);
    return core::TaskFarm(params).run(backend, grid, grid.node_ids(), tasks);
  };
  const core::FarmReport plain = run(nullptr);
  Telemetry tel(/*detail=*/true);
  const core::FarmReport detail = run(&tel);
  ASSERT_GT(detail.resilience.crashes_detected, 0u);
  ASSERT_GT(detail.resilience.failovers, 0u);
  EXPECT_EQ(plain.makespan.value, detail.makespan.value);
  expect_tiers_agree(plain.trace, detail.trace);
  EXPECT_FALSE(plain.trace.all_stored(TraceEventKind::TaskCompleted));
  EXPECT_THROW((void)plain.trace.throughput_series(Seconds{10.0},
                                                   plain.makespan),
               std::logic_error);
}

// HierFarm with a sub-farmer crash and a worker crash.  The plain run
// passes a detail-off Telemetry, so its shard emitters inherit the switch.
TEST(TraceDetail, ChurnedHierFarmStoresTheDetailTraceMinusPerTaskRecords) {
  const auto run = [](Telemetry& tel) {
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
    params.telemetry = &tel;
    core::SimBackend backend(grid);
    return core::HierFarm(params).run(backend, grid, grid.node_ids(),
                                      task_set(160, 2000.0, 0.6, 17));
  };
  Telemetry off(/*detail=*/false);
  Telemetry on(/*detail=*/true);
  const core::HierFarmReport plain = run(off);
  const core::HierFarmReport detail = run(on);
  ASSERT_EQ(detail.promotions, 1u);
  EXPECT_EQ(plain.makespan.value, detail.makespan.value);
  expect_tiers_agree(plain.trace, detail.trace);
}

// Pipeline on a churning pool: a crash inside calibration, a joiner and a
// mid-run stage failover.
TEST(TraceDetail, PipelineStoresTheDetailTraceMinusPerTaskRecords) {
  const auto run = [](Telemetry* tel) {
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
    params.telemetry = tel;
    core::SimBackend backend(grid);
    return core::Pipeline(params).run(
        backend, grid, grid.node_ids(),
        workloads::make_uniform_pipeline(4, 30.0, 1e4), 400);
  };
  const core::PipelineReport plain = run(nullptr);
  Telemetry tel(/*detail=*/true);
  const core::PipelineReport detail = run(&tel);
  ASSERT_GE(detail.resilience.crashes_detected, 2u);
  EXPECT_EQ(plain.items_completed, 400u);
  EXPECT_EQ(plain.makespan.value, detail.makespan.value);
  expect_tiers_agree(plain.trace, detail.trace);
}

// GridService tenants inherit the service's detail switch: none without a
// service telemetry, detail with a detail-on one.
TEST(TraceDetail, GridServiceTenantStoresTheDetailTraceMinusPerTaskRecords) {
  const auto run = [](Telemetry* tel) {
    const gridsim::Grid grid = gridsim::make_uniform_grid(8, 100.0);
    core::SimBackend backend(grid);
    svc::GridService::Params sp;
    sp.telemetry = tel;
    svc::GridService service(backend, grid, grid.node_ids(), sp);
    svc::JobOptions opt;
    opt.max_share = 0.5;
    const svc::JobHandle a = service.submit(
        svc::FarmJob{core::make_adaptive_farm_params(),
                     task_set(120, 100.0, 0.6, 1)},
        opt);
    const svc::JobHandle b = service.submit_at(
        Seconds{5.0},
        svc::FarmJob{core::make_adaptive_farm_params(),
                     task_set(120, 100.0, 0.6, 2)},
        opt);
    service.wait_all();
    EXPECT_EQ(a.status(), svc::JobStatus::Completed);
    EXPECT_EQ(b.status(), svc::JobStatus::Completed);
    return std::vector<core::FarmReport>{a.farm_report(), b.farm_report()};
  };
  const std::vector<core::FarmReport> plain = run(nullptr);
  Telemetry tel(/*detail=*/true);
  const std::vector<core::FarmReport> detail = run(&tel);
  ASSERT_EQ(plain.size(), 2u);
  ASSERT_EQ(detail.size(), 2u);
  for (std::size_t j = 0; j < 2; ++j) {
    SCOPED_TRACE(::testing::Message() << "tenant " << j);
    EXPECT_EQ(plain[j].makespan.value, detail[j].makespan.value);
    expect_tiers_agree(plain[j].trace, detail[j].trace);
  }
}

}  // namespace
}  // namespace grasp::obs
