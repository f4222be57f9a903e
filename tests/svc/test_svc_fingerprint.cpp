// Multi-tenant fingerprint of the GridService event loop.
//
// A seeded open-loop stream (submit_at) of farm and pipeline tenants over a
// churning pool, run on SimBackend, reduced per job to two digests: one of
// its lifecycle and report (status, start/finish time, allocation,
// makespan, task/calibration/reissue counts) and one of its trace sequence.
// The expected digests pin which completion each engine saw, and when: any
// change to the order in which the service steps the tenants on the
// shared backend shows up here as a mismatch.
//
// The ThreadBackend test runs three tenants, at least two at once, on a
// backend whose operations complete on real worker threads.  Completion
// order there depends on wall-clock timing, so it checks conservation
// rather than digests.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/backend_sim.hpp"
#include "core/backend_thread.hpp"
#include "core/baselines.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/telemetry.hpp"
#include "svc/grid_service.hpp"
#include "tests/fingerprint.hpp"
#include "workloads/applications.hpp"
#include "workloads/generators.hpp"

namespace grasp::svc {
namespace {

using test::Digest;
using test::trace_digest;

std::string job_digest(const JobHandle& job) {
  Digest d;
  d.add(std::string(to_string(job.status())))
      .add(job.submitted_at().value)
      .add(job.started_at().value)
      .add(job.finished_at().value)
      .add(job.makespan_s());
  for (const NodeId n : job.nodes()) d.add(n.value);
  if (job.has_farm_report()) {
    const core::FarmReport& r = job.farm_report();
    d.add(std::uint64_t{r.tasks_completed})
        .add(std::uint64_t{r.calibration_tasks})
        .add(std::uint64_t{r.reissues})
        .add(std::uint64_t{r.resilience.tasks_redispatched})
        .add(std::uint64_t{r.resilience.failovers});
  }
  return d.hex();
}

/// Service params whose tenants record into `tel`'s detail tier, so their
/// traces hold the per-task records the digests cover.
GridService::Params detail_params(obs::Telemetry& tel) {
  GridService::Params p;
  p.telemetry = &tel;
  return p;
}

gridsim::Grid churn_grid() {
  gridsim::ChurnScenarioParams cp;
  cp.grid.node_count = 14;
  cp.grid.sites = 2;
  cp.grid.dynamics = gridsim::Dynamics::Walk;
  cp.grid.seed = 613;
  cp.spare_nodes = 3;
  cp.mtbf = 200.0;
  cp.crash_fraction = 0.6;
  cp.rejoin_probability = 0.7;
  cp.rejoin_delay = Seconds{25.0};
  cp.horizon = Seconds{900.0};
  cp.warmup = Seconds{15.0};
  cp.protected_prefix = 1;
  cp.churn_seed = 4099;
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
  tp.cv = 0.7;
  tp.seed = seed;
  return workloads::make_task_set(tp);
}

// Five farm tenants and one pipeline tenant arrive on backend timers over
// a churning pool.  max_share 0.4 keeps two or three running at once and
// queues the rest, so the stream crosses every service path: arrivals
// while tenants run, FIFO admission as tenants retire, zombie completions
// of retired tenants, and churn-driven cache invalidation.  The pipeline
// tenant loses its source node to churn and throws while the farms run
// on, so an engine failing mid-stream is pinned too.
TEST(GridServiceFingerprint, SubmitAtStreamOnChurnGrid) {
  const gridsim::Grid grid = churn_grid();
  core::SimBackend backend(grid);
  obs::Telemetry tel;  // detail on: tenants store per-task trace records
  GridService service(backend, grid, grid.node_ids(), detail_params(tel));

  struct Expected {
    JobStatus status;
    const char* job;
    const char* trace;
  };
  const double arrivals[] = {0.0, 4.0, 9.0, 21.0, 40.0, 55.0};
  std::vector<JobHandle> handles;
  for (std::size_t j = 0; j < 6; ++j) {
    JobOptions opt;
    opt.name = "tenant-" + std::to_string(j);
    opt.max_share = 0.4;
    opt.min_nodes = 3;
    if (j == 3) {
      core::PipelineParams pp;
      pp.monitor.period = Seconds{1.0};
      handles.push_back(service.submit_at(
          Seconds{arrivals[j]},
          PipelineJob{pp, workloads::make_uniform_pipeline(3, 20.0, 1e4), 80},
          opt));
    } else {
      handles.push_back(service.submit_at(
          Seconds{arrivals[j]},
          FarmJob{resilient_params(), stream_tasks(90 + 10 * j, 71 + j)},
          opt));
    }
  }
  service.wait_all();

  EXPECT_GE(service.max_concurrent_observed(), 2u);
  EXPECT_EQ(service.jobs_completed(), 5u);
  EXPECT_EQ(service.jobs_failed(), 1u);
  EXPECT_EQ(handles[3].error_message(),
            "Pipeline: source node lost to churn (place it on a protected "
            "node)");
  constexpr JobStatus kDone = JobStatus::Completed;
  const Expected want[] = {
      {kDone, "4f42dba61157f5e7", "1244093712864ea2"},
      {kDone, "e8343552b5034130", "23365081d7f782fc"},
      {kDone, "2ebf795e53c64210", "33200e5596aa0ee9"},
      {JobStatus::Failed, "4235fae0b85067b9", ""},
      {kDone, "1dc19a675c45d029", "9786c24aa6364cfe"},
      {kDone, "7363139af8116dc8", "7095bf8fee314a9b"},
  };
  for (std::size_t j = 0; j < handles.size(); ++j) {
    SCOPED_TRACE(::testing::Message() << "tenant=" << j);
    const JobHandle& h = handles[j];
    ASSERT_EQ(h.status(), want[j].status) << h.error_message();
    EXPECT_EQ(job_digest(h), want[j].job) << "lifecycle and report";
    if (h.has_farm_report()) {
      EXPECT_EQ(trace_digest(h.farm_report().trace), want[j].trace)
          << "trace sequence";
    }
  }
}

// A pipeline tenant streams beside a farm tenant whose non-resilient
// recalibration drains the farm's in-flight chunks mid-run.  The farm is
// granted the four fast nodes and all four degrade at t=40.  Algorithm 2
// fires at t~44, and the drain and the recalibration that follows it run
// to t~59.  The drain waits only on the farm's own operations; the
// pipeline's items keep completing on the slow half of the pool until it
// finishes at t~54.
TEST(GridServiceFingerprint, PipelineBesideRecalibratingFarm) {
  gridsim::GridBuilder builder;
  const SiteId site = builder.add_site("a");
  for (int i = 0; i < 4; ++i) builder.add_node(site, 300.0);
  for (int i = 0; i < 6; ++i) builder.add_node(site, 150.0);
  gridsim::Grid grid = builder.build();
  for (std::uint64_t i = 0; i < 4; ++i)
    gridsim::inject_load_step_on(grid, NodeId{i}, Seconds{40.0}, 9.0);
  core::SimBackend backend(grid);
  obs::Telemetry tel;
  GridService service(backend, grid, grid.node_ids(), detail_params(tel));

  JobOptions half;
  half.max_share = 0.5;
  core::FarmParams fp = core::make_adaptive_farm_params();
  fp.calibration.select_count = 3;
  const JobHandle farm =
      service.submit(FarmJob{fp, stream_tasks(400, 5)}, half);
  const JobHandle pipe = service.submit(
      PipelineJob{core::PipelineParams{},
                  workloads::make_uniform_pipeline(3, 40.0, 1e4), 200},
      half);
  service.wait_all();

  ASSERT_EQ(farm.status(), JobStatus::Completed) << farm.error_message();
  ASSERT_EQ(pipe.status(), JobStatus::Completed) << pipe.error_message();
  ASSERT_GE(farm.farm_report().recalibrations, 1u);
  EXPECT_EQ(service.max_concurrent_observed(), 2u);
  EXPECT_EQ(pipe.pipeline_report().items_completed, 200u);
  EXPECT_EQ(job_digest(farm), "990461e86a486dda");
  EXPECT_EQ(trace_digest(farm.farm_report().trace), "6d66627888aa96e1");
  EXPECT_EQ(job_digest(pipe), "68feae409f5e1648");
  EXPECT_EQ(trace_digest(pipe.pipeline_report().trace), "5a71e27904ae19d6");
}

// Concurrent tenants on real threads.  The service blocks in
// ThreadBackend::wait_next while the tenants' ops complete on the
// backend's worker threads.  Tasks are short (a few wall
// milliseconds) and nothing is timed, so there is no wall-clock bound to
// flake on.
TEST(GridServiceThreadBackend, TwoConcurrentTenantsConserveTasks) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(6, 100.0);
  core::ThreadBackend::Params bp;
  bp.time_scale = 1e-3;
  core::ThreadBackend backend(grid, bp);
  GridService service(backend, grid, grid.node_ids());

  std::vector<JobHandle> handles;
  const std::size_t sizes[] = {40, 30, 24};
  for (std::size_t j = 0; j < 3; ++j) {
    JobOptions opt;
    opt.name = "tenant-" + std::to_string(j);
    opt.max_share = 0.5;
    handles.push_back(service.submit(
        FarmJob{core::make_adaptive_farm_params(), stream_tasks(sizes[j], j)},
        opt));
  }
  service.wait_all();

  EXPECT_GE(service.max_concurrent_observed(), 2u);
  for (std::size_t j = 0; j < handles.size(); ++j) {
    SCOPED_TRACE(::testing::Message() << "tenant=" << j);
    ASSERT_EQ(handles[j].status(), JobStatus::Completed);
    const core::FarmReport& r = handles[j].farm_report();
    EXPECT_EQ(r.tasks_completed + r.calibration_tasks, sizes[j]);
  }
}

}  // namespace
}  // namespace grasp::svc
