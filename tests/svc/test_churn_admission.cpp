// Regression suite for the two churn-facing scheduler bugs:
//
//   * stale calibration cache — a node that crashed, left, or was evicted
//     for degradation kept its cached spm, so a later tenant warm-started
//     from a measurement of a machine that no longer exists; and
//   * churn-induced head-of-line blocking — min_nodes was clamped against
//     the pool only at submit, so once churn shrank live membership below
//     a queued head's floor, FIFO head-only admission starved the whole
//     queue (and allocations could hand a tenant nothing but corpses).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "core/task_farm.hpp"
#include "gridsim/scenarios.hpp"
#include "svc/grid_service.hpp"
#include "workloads/generators.hpp"

namespace grasp::svc {
namespace {

workloads::TaskSet uniform_tasks(std::size_t n, double mops,
                                 const std::string& name) {
  workloads::TaskSet ts;
  ts.name = name;
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

/// One slow survivor plus three fast nodes that all crash at t=5 and never
/// return.  The fast trio dominates any capacity-ranked allocation, so a
/// scheduler that ignores liveness hands arrivals a grave.
gridsim::Grid make_fast_corpses_grid() {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  b.add_node(s, 10.0);  // node 0: slow but immortal
  for (int i = 0; i < 3; ++i) b.add_node(s, 100.0);
  gridsim::Grid grid = b.build();
  std::vector<gridsim::ChurnEvent> events;
  for (std::uint64_t n = 1; n <= 3; ++n) {
    grid.node(NodeId{n}).add_downtime({Seconds{5.0}, Seconds{1e9}});
    events.push_back({Seconds{5.0}, gridsim::ChurnEventKind::Crash,
                      NodeId{n}});
  }
  grid.set_churn(gridsim::ChurnTimeline(std::move(events)));
  return grid;
}

// Pre-fix, the t=10 arrival was allocated the three fastest free nodes —
// all dead for five seconds — and its engine threw "no pool member is
// present at t=0": a permanently Failed job on a pool with a live node.
// Admission must allocate over live members only.
TEST(SvcChurnAdmission, ArrivalAfterCrashIsNotAllocatedDeadNodes) {
  const gridsim::Grid grid = make_fast_corpses_grid();
  core::SimBackend backend(grid);
  GridService service(backend, grid, grid.node_ids());

  JobOptions opt;
  opt.max_share = 0.75;
  const JobHandle job = service.submit_at(
      Seconds{10.0},
      FarmJob{core::make_demand_farm_params(),
              uniform_tasks(30, 100.0, "post-crash-arrival")},
      opt);
  service.wait_all();

  ASSERT_EQ(job.status(), JobStatus::Completed);
  ASSERT_EQ(job.nodes().size(), 1u);
  EXPECT_EQ(job.nodes().front(), NodeId{0});
  EXPECT_EQ(job.farm_report().tasks_completed +
                job.farm_report().calibration_tasks,
            30u);
  EXPECT_EQ(service.jobs_failed(), 0u);
}

// A head job whose submit-time min_nodes (clamped to the 4-node pool)
// exceeds the single live survivor must be re-clamped against live
// membership, or FIFO head-only admission blocks it — and everything
// behind it — forever.
TEST(SvcChurnAdmission, MinNodesReclampsToLiveMembership) {
  const gridsim::Grid grid = make_fast_corpses_grid();
  core::SimBackend backend(grid);
  GridService service(backend, grid, grid.node_ids());

  JobOptions head;
  head.name = "greedy-head";
  head.min_nodes = 4;  // the whole pool, as clamped at submit
  const JobHandle blocked_head = service.submit_at(
      Seconds{10.0},
      FarmJob{core::make_demand_farm_params(),
              uniform_tasks(20, 100.0, "head")},
      head);
  const JobHandle behind = service.submit_at(
      Seconds{11.0},
      FarmJob{core::make_demand_farm_params(),
              uniform_tasks(20, 100.0, "behind")});
  service.wait_all();

  // No permanent starvation: the head ran on what was actually alive, and
  // the job queued behind it was not wedged by the head's stale floor.
  EXPECT_EQ(blocked_head.status(), JobStatus::Completed);
  EXPECT_EQ(behind.status(), JobStatus::Completed);
  EXPECT_EQ(service.jobs_queued(), 0u);
  EXPECT_GE(service.min_nodes_reclamps(), 1u);
}

// Seeded Poisson churn, open-loop arrivals, every job demanding the full
// submit-time pool: no arrival may be left permanently Queued no matter
// how the membership breathes.
TEST(SvcChurnAdmission, SeededChurnStreamNeverStarvesTheQueue) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    gridsim::ChurnScenarioParams cp;
    cp.grid.node_count = 10;
    cp.grid.dynamics = gridsim::Dynamics::Stable;
    cp.grid.seed = 40 + seed;
    cp.mtbf = 250.0;
    cp.crash_fraction = 0.5;
    cp.rejoin_probability = 0.8;
    cp.rejoin_delay = Seconds{25.0};
    cp.horizon = Seconds{900.0};
    cp.warmup = Seconds{15.0};
    cp.protected_prefix = 1;
    cp.churn_seed = 131 * (seed + 1);
    const gridsim::Grid grid = gridsim::make_churn_grid(cp);

    core::SimBackend backend(grid);
    GridService service(backend, grid, grid.node_ids());

    core::FarmParams p = core::make_adaptive_farm_params();
    p.chunk_size = 3;
    p.resilience.enabled = true;
    p.resilience.detector.heartbeat_period = Seconds{1.0};
    p.resilience.detector.timeout = Seconds{4.0};
    p.resilience.checkpoint_period = Seconds{4.0};

    std::vector<JobHandle> handles;
    for (std::size_t j = 0; j < 4; ++j) {
      JobOptions opt;
      opt.name = "arrival-" + std::to_string(j);
      opt.min_nodes = 64;  // clamped to the pool at submit; churn shrinks it
      handles.push_back(service.submit_at(
          Seconds{30.0 + 40.0 * static_cast<double>(j)},
          FarmJob{p, uniform_tasks(40, 150.0, "churn-arrival")}, opt));
    }
    service.wait_all();

    EXPECT_EQ(service.jobs_queued(), 0u);
    for (std::size_t j = 0; j < handles.size(); ++j) {
      SCOPED_TRACE(::testing::Message() << "arrival=" << j);
      EXPECT_EQ(handles[j].status(), JobStatus::Completed);
    }
  }
}

// ------------------------------------------------------- stale spm cache

// A node crashes and rejoins between two tenants.  Its cached spm belongs
// to the pre-crash machine; pre-fix the second tenant warm-started from
// it (zero probes) and ranked a rebooted node on stale data.  The crash
// must invalidate the entry so the second tenant re-probes exactly that
// node.
TEST(SvcChurnAdmission, CrashBetweenTenantsForcesReprobe) {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (int i = 0; i < 4; ++i) b.add_node(s, 100.0);
  gridsim::Grid grid = b.build();
  grid.node(NodeId{2}).add_downtime({Seconds{200.0}, Seconds{210.0}});
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{200.0}, gridsim::ChurnEventKind::Crash, NodeId{2}},
       {Seconds{210.0}, gridsim::ChurnEventKind::Rejoin, NodeId{2}}}));

  core::SimBackend backend(grid);
  GridService service(backend, grid, grid.node_ids());

  const JobHandle first = service.submit(
      FarmJob{core::make_adaptive_farm_params(),
              uniform_tasks(120, 100.0, "cold-tenant")});
  service.wait(first);
  ASSERT_EQ(first.status(), JobStatus::Completed);
  ASSERT_GT(first.farm_report().calibration_tasks, 0u);
  ASSERT_LT(first.farm_report().makespan.value, 200.0)
      << "tenant 1 must retire before the planted crash";

  // Node 2 crashes at t=200 and rejoins at t=210; the second tenant
  // arrives at t=300 with all four nodes live again.
  const JobHandle second = service.submit_at(
      Seconds{300.0}, FarmJob{core::make_adaptive_farm_params(),
                              uniform_tasks(120, 100.0, "warm-tenant")});
  service.wait_all();
  ASSERT_EQ(second.status(), JobStatus::Completed);

  // Pre-fix: 0 — the stale entry made the whole pool look warm.
  EXPECT_GT(second.farm_report().calibration_tasks, 0u);
  // And only the rebooted node was re-probed; the others stayed warm.
  EXPECT_LT(second.farm_report().calibration_tasks,
            first.farm_report().calibration_tasks);
  EXPECT_GE(service.calibration_cache().invalidations(), 1u);
}

// A tenant that evicts a node for persistent degradation has proven the
// cached spm wrong; the next tenant must re-probe the degraded node, not
// inherit the measurement that got it thrown out.
TEST(SvcChurnAdmission, DegradationEvictionBetweenTenantsForcesReprobe) {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (int i = 0; i < 3; ++i) b.add_node(s, 100.0);
  gridsim::Grid grid = b.build();
  // Node 2 stays a member but is swamped 50x from t=6 onward, mid-run for
  // tenant 1 and still degraded when tenant 2 arrives.
  gridsim::inject_load_step_on(grid, NodeId{2}, Seconds{6.0}, 49.0);
  grid.set_churn(gridsim::ChurnTimeline(std::vector<gridsim::ChurnEvent>{}));

  core::SimBackend backend(grid);
  GridService service(backend, grid, grid.node_ids());

  core::FarmParams evicting = core::make_adaptive_farm_params();
  evicting.chunk_size = 4;
  evicting.resilience.enabled = true;
  evicting.resilience.detector.heartbeat_period = Seconds{1.0};
  evicting.resilience.detector.timeout = Seconds{5.0};
  evicting.resilience.checkpoint_period = Seconds{1.0};
  evicting.resilience.pool.evict_ratio = 2.0;
  evicting.reissue_stragglers = false;  // eviction, not tail-steal, rescues

  const JobHandle first = service.submit(
      FarmJob{evicting, uniform_tasks(30, 200.0, "evicting-tenant")});
  service.wait(first);
  ASSERT_EQ(first.status(), JobStatus::Completed);
  ASSERT_GE(first.farm_report().resilience.evictions, 1u)
      << "planted degradation must trigger an eviction for this test";

  const JobHandle second = service.submit_at(
      Seconds{400.0}, FarmJob{core::make_adaptive_farm_params(),
                              uniform_tasks(30, 200.0, "next-tenant")});
  service.wait_all();
  ASSERT_EQ(second.status(), JobStatus::Completed);

  // Pre-fix: 0 — the evicted node's stale spm kept the pool fully warm.
  EXPECT_GT(second.farm_report().calibration_tasks, 0u);
  EXPECT_GE(service.calibration_cache().invalidations(), 1u);
}

}  // namespace
}  // namespace grasp::svc
