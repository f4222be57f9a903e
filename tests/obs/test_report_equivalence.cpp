// The resilience report must be a registry snapshot: on a seeded churn
// run with an external Telemetry attached, reading the counters back out
// of the registry must reproduce the report exactly — and a second run on
// the same (still warm) registry must still yield a correct per-run delta.
#include <gtest/gtest.h>

#include <type_traits>

#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "core/task_farm.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/telemetry.hpp"
#include "resil/report.hpp"
#include "workloads/generators.hpp"

namespace grasp::obs {
namespace {

gridsim::Grid churn_grid() {
  gridsim::ChurnScenarioParams scenario;
  scenario.grid.node_count = 12;
  scenario.grid.dynamics = gridsim::Dynamics::Walk;
  scenario.grid.seed = 42;
  scenario.spare_nodes = 4;
  scenario.mtbf = 120.0;
  scenario.protected_prefix = 0;
  scenario.churn_seed = 49;
  return gridsim::make_churn_grid(scenario);
}

core::FarmParams resilient_params(Telemetry* telemetry) {
  core::FarmParams params = core::make_adaptive_farm_params();
  params.chunk_size = 4;
  params.resilience.enabled = true;
  params.resilience.detector.heartbeat_period = Seconds{1.0};
  params.resilience.detector.timeout = Seconds{5.0};
  params.resilience.checkpoint_period = Seconds{4.0};
  params.resilience.failover.standby_count = 1;
  params.resilience.failover.handshake = Seconds{2.0};
  params.telemetry = telemetry;
  return params;
}

void expect_report_equals(const resil::ResilienceReport& a,
                          const resil::ResilienceReport& b) {
  resil::for_each_field(a, b, [](const char* name, auto x, auto y) {
    if constexpr (std::is_same_v<decltype(x), double>)
      EXPECT_DOUBLE_EQ(x, y) << name;
    else
      EXPECT_EQ(x, y) << name;
  });
}

TEST(ObsReportEquivalence, RegistrySnapshotMatchesReportOnChurnRun) {
  const workloads::TaskSet tasks = [] {
    workloads::TaskSetParams wl;
    wl.count = 1000;
    wl.mean_mops = 120.0;
    wl.cv = 1.0;
    wl.seed = 43;
    return workloads::make_task_set(wl);
  }();

  Telemetry telemetry;
  gridsim::Grid grid = churn_grid();
  core::SimBackend backend(grid);
  const core::FarmReport report =
      core::TaskFarm(resilient_params(&telemetry))
          .run(backend, grid, grid.node_ids(), tasks);
  // The scenario must actually exercise the counters.
  EXPECT_GT(report.resilience.crashes_detected, 0u);

  const resil::ResilienceMetrics rm =
      resil::ResilienceMetrics::register_in(telemetry.metrics);
  expect_report_equals(rm.snapshot(telemetry.metrics), report.resilience);

  // Farm scalars are mirrored for exporters.
  EXPECT_EQ(telemetry.metrics.counter_value(
                telemetry.metrics.counter("farm.tasks_completed")),
            report.tasks_completed);

  // Second run against the same registry: absolute counters keep
  // accumulating, yet the report must still be this run's delta.
  const MetricsSnapshot before = telemetry.metrics.snapshot();
  gridsim::Grid grid2 = churn_grid();
  core::SimBackend backend2(grid2);
  const core::FarmReport report2 =
      core::TaskFarm(resilient_params(&telemetry))
          .run(backend2, grid2, grid2.node_ids(), tasks);
  expect_report_equals(
      resil::from_snapshot(telemetry.metrics.snapshot().diff(before)),
      report2.resilience);
  // Identical seeds: the two runs are the same run, so the registry now
  // holds exactly twice the per-run counters.
  EXPECT_EQ(telemetry.metrics.counter_value(rm.crashes_detected),
            2 * report.resilience.crashes_detected);
}

TEST(ObsReportEquivalence, PrivateTelemetryStillFillsTheReport) {
  // No telemetry attached: the engine's private registry must feed the
  // report identically (same seeds as the attached run above).
  const workloads::TaskSet tasks = [] {
    workloads::TaskSetParams wl;
    wl.count = 1000;
    wl.mean_mops = 120.0;
    wl.cv = 1.0;
    wl.seed = 43;
    return workloads::make_task_set(wl);
  }();

  Telemetry telemetry;
  gridsim::Grid attached_grid = churn_grid();
  core::SimBackend attached_backend(attached_grid);
  const core::FarmReport attached =
      core::TaskFarm(resilient_params(&telemetry))
          .run(attached_backend, attached_grid, attached_grid.node_ids(),
               tasks);

  gridsim::Grid private_grid = churn_grid();
  core::SimBackend private_backend(private_grid);
  const core::FarmReport detached =
      core::TaskFarm(resilient_params(nullptr))
          .run(private_backend, private_grid, private_grid.node_ids(), tasks);

  // Telemetry must not perturb the simulation: identical reports either way.
  expect_report_equals(attached.resilience, detached.resilience);
  EXPECT_EQ(attached.tasks_completed, detached.tasks_completed);
  EXPECT_DOUBLE_EQ(attached.makespan.value, detached.makespan.value);
}

}  // namespace
}  // namespace grasp::obs
