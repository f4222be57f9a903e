// Seeded property suite for the multi-tenant service: several concurrent
// jobs over a churning pool, repeated across seeds.
//
// Invariants per seed:
//   * no job starves — every non-rejected job reaches a terminal state,
//     and with resilient engine params every job Completes;
//   * per-job exactly-once/conservation — each tenant's completed +
//     calibration task counts equal its own task-set size, no matter how
//     much churn, reissue and failover traffic the pool saw;
//   * genuine multi-tenancy — at least two jobs overlap in time;
//   * the shared calibration cache only ever helps — a warm second pass
//     over the same pool spends no more calibration tasks than the first.
//
// Admission is pinned exactly as well: a digest of every job's status,
// start instant and nodes across the churn seeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "gridsim/scenarios.hpp"
#include "svc/grid_service.hpp"
#include "tests/fingerprint.hpp"
#include "workloads/generators.hpp"

namespace grasp::svc {
namespace {

gridsim::Grid make_churny_grid(std::uint64_t seed) {
  gridsim::ChurnScenarioParams cp;
  cp.grid.node_count = 12;
  cp.grid.sites = 2;
  cp.grid.dynamics = gridsim::Dynamics::Stable;
  cp.grid.seed = 500 + seed;
  cp.spare_nodes = 2;
  cp.mtbf = 300.0;
  cp.crash_fraction = 0.5;
  cp.rejoin_probability = 0.7;
  cp.rejoin_delay = Seconds{30.0};
  cp.horizon = Seconds{800.0};
  cp.warmup = Seconds{25.0};
  // Farmer failover (below) covers coordinator loss, so only the first
  // node — every tenant's fallback root candidate — stays protected.
  cp.protected_prefix = 1;
  cp.churn_seed = 7919 * (seed + 1);
  return gridsim::make_churn_grid(cp);
}

core::FarmParams resilient_params() {
  core::FarmParams p = core::make_adaptive_farm_params();
  p.chunk_size = 3;
  p.resilience.enabled = true;
  p.resilience.detector.heartbeat_period = Seconds{1.0};
  p.resilience.detector.timeout = Seconds{4.0};
  p.resilience.checkpoint_period = Seconds{4.0};
  p.resilience.failover.standby_count = 1;
  p.resilience.failover.handshake = Seconds{1.0};
  return p;
}

workloads::TaskSet stream_tasks(std::size_t n, std::uint64_t seed) {
  workloads::TaskSetParams tp;
  tp.count = n;
  tp.mean_mops = 120.0;
  tp.cv = 0.6;
  tp.seed = seed;
  return workloads::make_task_set(tp);
}

TEST(JobStreamProperty, ConcurrentTenantsConserveTasksUnderChurn) {
  test::Digest admission;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const gridsim::Grid grid = make_churny_grid(seed);
    core::SimBackend backend(grid);
    GridService service(backend, grid, grid.node_ids());

    const std::vector<std::size_t> sizes = {90, 70, 80};
    std::vector<JobHandle> handles;
    for (std::size_t j = 0; j < sizes.size(); ++j) {
      JobOptions opt;
      opt.name = "tenant-" + std::to_string(j);
      opt.max_share = 0.4;
      opt.min_nodes = 3;  // room for the farmer + a standby + workers
      handles.push_back(service.submit(
          FarmJob{resilient_params(),
                  stream_tasks(sizes[j], 100 * seed + j)},
          opt));
    }
    service.wait_all();

    EXPECT_GE(service.max_concurrent_observed(), 2u);
    for (std::size_t j = 0; j < handles.size(); ++j) {
      SCOPED_TRACE(::testing::Message() << "tenant=" << j);
      // No starvation: every tenant ran and finished.
      ASSERT_EQ(handles[j].status(), JobStatus::Completed);
      const core::FarmReport& r = handles[j].farm_report();
      // Per-job exactly-once conservation, churn or not.
      EXPECT_EQ(r.tasks_completed + r.calibration_tasks, sizes[j]);
      EXPECT_GT(handles[j].makespan_s(), 0.0);
      admission.add(std::string(to_string(handles[j].status())))
          .add(handles[j].started_at().value);
      for (const NodeId n : handles[j].nodes()) admission.add(n.value);
    }
  }
  // Which tenant started when, on which nodes, over all five seeds.
  EXPECT_EQ(admission.hex(), "f3ee0b7387b2753a");
}

TEST(JobStreamProperty, WarmCacheNeverCostsCalibrationTasks) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    const gridsim::Grid grid = gridsim::make_uniform_grid(8, 100.0);
    core::SimBackend backend(grid);
    GridService service(backend, grid, grid.node_ids());

    const JobHandle cold = service.submit(FarmJob{
        core::make_adaptive_farm_params(), stream_tasks(140, 10 * seed)});
    service.wait(cold);
    const JobHandle warm = service.submit(FarmJob{
        core::make_adaptive_farm_params(), stream_tasks(140, 10 * seed + 1)});
    service.wait(warm);

    ASSERT_EQ(cold.status(), JobStatus::Completed);
    ASSERT_EQ(warm.status(), JobStatus::Completed);
    EXPECT_LE(warm.farm_report().calibration_tasks,
              cold.farm_report().calibration_tasks);
    EXPECT_GT(service.calibration_cache().hits(), 0u);
    EXPECT_EQ(warm.farm_report().tasks_completed +
                  warm.farm_report().calibration_tasks,
              140u);
  }
}

}  // namespace
}  // namespace grasp::svc
