#include "svc/grid_service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <unordered_set>

#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "core/task_farm.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/telemetry.hpp"
#include "workloads/applications.hpp"
#include "workloads/generators.hpp"

namespace grasp::svc {
namespace {

/// Queue wait of the blocked job in QueuedJobStartsAtTheBlockingTenantsFinish
/// (virtual seconds): its blocker's finish time minus its arrival at t=5.
constexpr double kBlockedQueueWait = 21.917253496504671;

workloads::TaskSet tasks(std::size_t n, std::uint64_t seed = 42) {
  workloads::TaskSetParams p;
  p.count = n;
  p.mean_mops = 100.0;
  p.cv = 0.6;
  p.seed = seed;
  return workloads::make_task_set(p);
}

// The standalone engine stepped by hand: the loop core::drive runs.  The
// "RunEngine" in the test names below is this loop.
core::FarmReport run_engine_by_hand(const gridsim::Grid& grid,
                                    const workloads::TaskSet& ts) {
  core::SimBackend backend(grid);
  const auto engine = core::TaskFarm(core::make_adaptive_farm_params())
                          .engine(backend, grid, grid.node_ids(), ts);
  engine->start(backend.now());
  while (!engine->finished()) {
    if (const auto c = backend.wait_next())
      engine->on(*c);
    else
      engine->on_idle();
  }
  return engine->take_report();
}

void expect_reports_equal(const core::FarmReport& a,
                          const core::FarmReport& b) {
  EXPECT_DOUBLE_EQ(a.makespan.value, b.makespan.value);
  EXPECT_EQ(a.tasks_completed, b.tasks_completed);
  EXPECT_EQ(a.calibration_tasks, b.calibration_tasks);
  EXPECT_EQ(a.recalibrations, b.recalibrations);
  EXPECT_EQ(a.reissues, b.reissues);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.final_chosen, b.final_chosen);
  EXPECT_EQ(a.trace.events().size(), b.trace.events().size());
  for (std::size_t k = 0; k < gridsim::kTraceEventKindCount; ++k) {
    const auto kind = static_cast<gridsim::TraceEventKind>(k);
    EXPECT_EQ(a.trace.count(kind), b.trace.count(kind)) << to_string(kind);
  }
}

TEST(GridService, InlineSingleJobMatchesRunEngine) {
  // A lone tenant steps the same engine over the same completion stream as
  // the hand-written loop does.
  gridsim::ScenarioParams sp;
  sp.node_count = 8;
  sp.dynamics = gridsim::Dynamics::Mixed;
  sp.seed = 11;
  const gridsim::Grid grid = gridsim::make_grid(sp);
  const workloads::TaskSet ts = tasks(200);
  const core::FarmReport by_hand = run_engine_by_hand(grid, ts);

  core::SimBackend backend(grid);
  GridService::Params params;
  params.use_calibration_cache = false;
  GridService service(backend, grid, grid.node_ids(), params);
  const JobHandle handle =
      service.submit(FarmJob{core::make_adaptive_farm_params(), ts});
  service.wait(handle);
  EXPECT_EQ(handle.status(), JobStatus::Completed);
  expect_reports_equal(handle.farm_report(), by_hand);
  EXPECT_EQ(service.max_concurrent_observed(), 1u);
}

TEST(GridService, WrapperRunMatchesRunEngine) {
  // TaskFarm::run is the same hand-written loop behind one call.
  gridsim::ScenarioParams sp;
  sp.node_count = 8;
  sp.dynamics = gridsim::Dynamics::Mixed;
  sp.seed = 23;
  const gridsim::Grid grid = gridsim::make_grid(sp);
  const workloads::TaskSet ts = tasks(180);
  const core::FarmReport by_hand = run_engine_by_hand(grid, ts);

  core::SimBackend backend(grid);
  core::TaskFarm farm(core::make_adaptive_farm_params());
  expect_reports_equal(farm.run(backend, grid, grid.node_ids(), ts),
                       by_hand);
}

TEST(GridService, TwoTenantsRunConcurrentlyOnDisjointAllocations) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(8, 100.0);
  core::SimBackend backend(grid);
  GridService service(backend, grid, grid.node_ids());

  JobOptions opt_a;
  opt_a.name = "tenant-a";
  opt_a.max_share = 0.5;
  JobOptions opt_b;
  opt_b.name = "tenant-b";
  opt_b.max_share = 0.5;
  const JobHandle a = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(120, 1)}, opt_a);
  const JobHandle b = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(120, 2)}, opt_b);
  service.wait_all();

  ASSERT_EQ(a.status(), JobStatus::Completed);
  ASSERT_EQ(b.status(), JobStatus::Completed);
  EXPECT_EQ(service.max_concurrent_observed(), 2u);
  EXPECT_EQ(a.nodes().size(), 4u);
  EXPECT_EQ(b.nodes().size(), 4u);
  std::unordered_set<NodeId> seen(a.nodes().begin(), a.nodes().end());
  for (const NodeId n : b.nodes()) EXPECT_EQ(seen.count(n), 0u);
  // Each tenant's report accounts for exactly its own tasks.
  EXPECT_EQ(a.farm_report().tasks_completed +
                a.farm_report().calibration_tasks,
            120u);
  EXPECT_EQ(b.farm_report().tasks_completed +
                b.farm_report().calibration_tasks,
            120u);
}

TEST(GridService, ConcurrentTenantsAreDeterministic) {
  const auto run_once = [] {
    const gridsim::Grid grid = gridsim::make_uniform_grid(8, 100.0);
    core::SimBackend backend(grid);
    GridService service(backend, grid, grid.node_ids());
    JobOptions half;
    half.max_share = 0.5;
    const JobHandle a = service.submit(
        FarmJob{core::make_adaptive_farm_params(), tasks(150, 1)}, half);
    const JobHandle b = service.submit(
        FarmJob{core::make_adaptive_farm_params(), tasks(150, 2)}, half);
    service.wait_all();
    return std::pair{a.makespan_s(), b.makespan_s()};
  };
  const auto first = run_once();
  const auto second = run_once();
  EXPECT_DOUBLE_EQ(first.first, second.first);
  EXPECT_DOUBLE_EQ(first.second, second.second);
}

TEST(GridService, SaturatedPoolQueuesFifo) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  core::SimBackend backend(grid);
  GridService service(backend, grid, grid.node_ids());

  // Work-conserving default: the first tenant takes all four nodes, so
  // the second waits for it to retire.
  const JobHandle a = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(100, 1)});
  const JobHandle b = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(100, 2)});
  service.wait_all();

  ASSERT_EQ(a.status(), JobStatus::Completed);
  ASSERT_EQ(b.status(), JobStatus::Completed);
  EXPECT_EQ(service.max_concurrent_observed(), 1u);
  EXPECT_GT(b.queue_wait_s(), 0.0);
  EXPECT_GE(b.started_at().value, a.finished_at().value);
}

TEST(GridService, JobDoneOnItsFirstStepIsReaped) {
  // A tenant whose engine throws at start is done before it ever waits;
  // the next pump must still reap it, so its allocation frees up at once.
  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  core::SimBackend backend(grid);
  GridService service(backend, grid, grid.node_ids());
  const workloads::PipelineSpec spec =
      workloads::make_uniform_pipeline(2, 50.0, 1e4);
  const JobHandle dead =
      service.submit(PipelineJob{core::PipelineParams{}, spec, 0});
  const JobHandle next = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(40, 1)});
  EXPECT_EQ(dead.nodes().size(), 4u);  // it held the whole pool
  service.wait(next);

  EXPECT_EQ(dead.status(), JobStatus::Failed);
  EXPECT_EQ(dead.error_message(), "Pipeline: item_count must be positive");
  EXPECT_EQ(dead.finished_at().value, 0.0);
  EXPECT_EQ(next.status(), JobStatus::Completed);
  EXPECT_EQ(next.started_at().value, 0.0);
  EXPECT_EQ(next.nodes().size(), 4u);
  EXPECT_EQ(service.jobs_failed(), 1u);
  EXPECT_EQ(service.jobs_running(), 0u);
}

TEST(GridService, QueuedJobStartsAtTheBlockingTenantsFinish) {
  // Every node is busy when the second job arrives at t=5: it waits in the
  // queue and is admitted at the very instant the first tenant retires.
  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  core::SimBackend backend(grid);
  GridService service(backend, grid, grid.node_ids());
  const JobHandle a = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(100, 1)});
  const JobHandle b = service.submit_at(
      Seconds{5.0}, FarmJob{core::make_adaptive_farm_params(), tasks(50, 2)});
  service.wait_all();

  ASSERT_EQ(a.status(), JobStatus::Completed);
  ASSERT_EQ(b.status(), JobStatus::Completed);
  EXPECT_EQ(b.submitted_at().value, 5.0);
  EXPECT_GT(a.finished_at().value, 5.0);
  EXPECT_EQ(b.started_at().value, a.finished_at().value);
  EXPECT_EQ(b.queue_wait_s(), a.finished_at().value - 5.0);
  EXPECT_DOUBLE_EQ(b.queue_wait_s(), kBlockedQueueWait);
}

TEST(GridService, WaitAllCoversLateArrivalsAndRejections) {
  // wait_all returns only after the last scheduled arrival has fired and
  // every job is terminal: two run, one is rejected at arrival, and one
  // arrives long after the service went idle.
  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  core::SimBackend backend(grid);
  GridService::Params params;
  params.max_concurrent_jobs = 1;
  params.max_queued_jobs = 1;
  GridService service(backend, grid, grid.node_ids(), params);
  const auto farm = [](std::uint64_t seed) {
    return FarmJob{core::make_adaptive_farm_params(), tasks(60, seed)};
  };
  const JobHandle running = service.submit(farm(1));
  const JobHandle queued = service.submit_at(Seconds{1.0}, farm(2));
  const JobHandle rejected = service.submit_at(Seconds{1.0}, farm(3));
  const JobHandle late = service.submit_at(Seconds{1000.0}, farm(4));
  service.wait_all();

  EXPECT_EQ(running.status(), JobStatus::Completed);
  EXPECT_EQ(queued.status(), JobStatus::Completed);
  EXPECT_EQ(rejected.status(), JobStatus::Rejected);
  EXPECT_EQ(late.status(), JobStatus::Completed);
  EXPECT_LT(queued.finished_at().value, 1000.0);
  EXPECT_EQ(late.started_at().value, 1000.0);
  EXPECT_GE(backend.now().value, late.finished_at().value);
  EXPECT_EQ(service.jobs_completed(), 3u);
  EXPECT_EQ(service.jobs_rejected(), 1u);
  EXPECT_EQ(service.jobs_running(), 0u);
  EXPECT_EQ(service.jobs_queued(), 0u);
}

TEST(GridService, AdmissionControlRejectsBeyondQueueBound) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  core::SimBackend backend(grid);
  GridService::Params params;
  params.max_concurrent_jobs = 1;
  params.max_queued_jobs = 1;
  GridService service(backend, grid, grid.node_ids(), params);

  const JobHandle a = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(80, 1)});
  const JobHandle b = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(80, 2)});
  const JobHandle c = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(80, 3)});

  EXPECT_EQ(c.status(), JobStatus::Rejected);
  service.wait_all();
  EXPECT_EQ(a.status(), JobStatus::Completed);
  EXPECT_EQ(b.status(), JobStatus::Completed);
  EXPECT_EQ(service.jobs_rejected(), 1u);
  EXPECT_EQ(service.jobs_completed(), 2u);
}

TEST(GridService, ScheduledArrivalsMaterialiseOnTheBackendClock) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(8, 100.0);
  core::SimBackend backend(grid);
  GridService service(backend, grid, grid.node_ids());

  JobOptions half;
  half.max_share = 0.5;
  const JobHandle now_job = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(200, 1)}, half);
  const JobHandle later = service.submit_at(
      Seconds{30.0},
      FarmJob{core::make_adaptive_farm_params(), tasks(60, 2)}, half);
  service.wait_all();

  ASSERT_EQ(now_job.status(), JobStatus::Completed);
  ASSERT_EQ(later.status(), JobStatus::Completed);
  EXPECT_DOUBLE_EQ(later.submitted_at().value, 30.0);
  EXPECT_GE(later.started_at().value, 30.0);
  EXPECT_EQ(service.max_concurrent_observed(), 2u);
}

TEST(GridService, PipelineJobsAreTenantsToo) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(8, 100.0);
  core::SimBackend backend(grid);
  GridService service(backend, grid, grid.node_ids());

  JobOptions half;
  half.max_share = 0.5;
  core::PipelineParams pp;
  const workloads::PipelineSpec spec =
      workloads::make_uniform_pipeline(3, 50.0, 1e4);
  const JobHandle pipe =
      service.submit(PipelineJob{pp, spec, 40}, half);
  const JobHandle farm = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(100, 2)}, half);
  service.wait_all();

  ASSERT_EQ(pipe.status(), JobStatus::Completed);
  ASSERT_EQ(farm.status(), JobStatus::Completed);
  EXPECT_EQ(pipe.pipeline_report().items_completed, 40u);
  EXPECT_TRUE(pipe.pipeline_report().output_in_order);
  EXPECT_EQ(service.max_concurrent_observed(), 2u);
}

TEST(GridService, LateTenantsCopyTheirMonitorBackFill) {
  // Tenants admitted late copy their monitors' back-fill from the service's
  // sample table; the same stream with every tenant replaying its own (a
  // caller-set table over another grid never matches) reads alike.  Each
  // tenant gets the whole pool, so Algorithm 1 ranks all eight nodes by
  // their monitors' load forecasts.
  gridsim::ScenarioParams sp;
  sp.node_count = 8;
  sp.dynamics = gridsim::Dynamics::Mixed;
  sp.seed = 5;
  const gridsim::Grid grid = gridsim::make_grid(sp);
  const gridsim::Grid elsewhere = gridsim::make_grid(sp);
  perfmon::SampleTable decoy(elsewhere, perfmon::MonitorDaemon::Params{});
  const workloads::PipelineSpec spec =
      workloads::make_uniform_pipeline(3, 50.0, 1e4);
  struct Run {
    std::vector<JobHandle> farms;
    JobHandle pipe;
    std::size_t folded = 0;
  };
  const auto run = [&](perfmon::SampleTable* table) {
    core::SimBackend backend(grid);
    GridService service(backend, grid, grid.node_ids());
    core::FarmParams fp = core::make_adaptive_farm_params();
    fp.monitor.sample_table = table;
    core::PipelineParams pp;
    pp.monitor.sample_table = table;
    Run r;
    for (const double at : {0.0, 40.0, 95.5})
      r.farms.push_back(service.submit_at(
          Seconds{at},
          FarmJob{fp, tasks(80, static_cast<std::uint64_t>(at))}));
    r.pipe = service.submit_at(Seconds{60.0}, PipelineJob{pp, spec, 30});
    service.wait_all();
    r.folded = service.sample_table().samples_folded();
    return r;
  };
  const Run shared = run(nullptr);
  const Run own = run(&decoy);
  EXPECT_GT(shared.folded, 0u);
  EXPECT_EQ(own.folded, 0u);
  EXPECT_EQ(decoy.samples_folded(), 0u);
  for (std::size_t j = 0; j < shared.farms.size(); ++j) {
    SCOPED_TRACE(::testing::Message() << "farm " << j);
    ASSERT_EQ(shared.farms[j].status(), JobStatus::Completed);
    ASSERT_EQ(own.farms[j].status(), JobStatus::Completed);
    const core::FarmReport& a = shared.farms[j].farm_report();
    const core::FarmReport& b = own.farms[j].farm_report();
    expect_reports_equal(a, b);
    EXPECT_EQ(a.monitor_samples, b.monitor_samples);
    // Algorithm 1 ranks by the monitor's load forecasts.
    EXPECT_EQ(a.final_baseline_spm, b.final_baseline_spm);
    // Every tenant's monitor counts its ticks from virtual time 0.
    EXPECT_GE(static_cast<double>(a.monitor_samples),
              std::floor(shared.farms[j].started_at().value));
  }
  ASSERT_EQ(shared.pipe.status(), JobStatus::Completed);
  ASSERT_EQ(own.pipe.status(), JobStatus::Completed);
  EXPECT_EQ(shared.pipe.pipeline_report().makespan,
            own.pipe.pipeline_report().makespan);
  EXPECT_EQ(shared.pipe.pipeline_report().final_mapping,
            own.pipe.pipeline_report().final_mapping);
  EXPECT_EQ(shared.pipe.pipeline_report().remaps,
            own.pipe.pipeline_report().remaps);
  EXPECT_EQ(shared.pipe.pipeline_report().mean_latency_s,
            own.pipe.pipeline_report().mean_latency_s);
}

TEST(GridService, EngineExceptionsSurfaceThroughWait) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  core::SimBackend backend(grid);
  GridService service(backend, grid, {});
  const JobHandle handle = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(10)});
  EXPECT_THROW(service.wait(handle), std::invalid_argument);
  EXPECT_EQ(handle.status(), JobStatus::Failed);
  EXPECT_NE(handle.error_message().find("empty pool"), std::string::npos);
}

TEST(GridService, ThreadedEngineExceptionsAreCapturedAndRethrown) {
  // Pipeline deeper than its allocation, next to a farm tenant: the
  // pipeline engine throws at its start; the service must carry the exact
  // exception back to wait() while the farm runs on to completion.
  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  core::SimBackend backend(grid);
  GridService service(backend, grid, grid.node_ids());
  JobOptions half;
  half.max_share = 0.5;
  const JobHandle farm = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(60, 1)}, half);
  const workloads::PipelineSpec spec =
      workloads::make_uniform_pipeline(5, 50.0, 1e4);
  const JobHandle handle =
      service.submit(PipelineJob{core::PipelineParams{}, spec, 10}, half);
  EXPECT_THROW(service.wait(handle), std::invalid_argument);
  EXPECT_EQ(handle.status(), JobStatus::Failed);
  EXPECT_EQ(handle.error_message(),
            "Pipeline: pool smaller than total replicas");
  service.wait_all();  // must not rethrow or hang
  EXPECT_EQ(farm.status(), JobStatus::Completed);
  EXPECT_EQ(service.max_concurrent_observed(), 2u);
}

TEST(GridService, SubmitRejectsBadWeightAndShare) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  core::SimBackend backend(grid);
  GridService service(backend, grid, grid.node_ids());
  const auto submit_with = [&](double weight, double max_share) {
    JobOptions opt;
    opt.weight = weight;
    opt.max_share = max_share;
    return service.submit(
        FarmJob{core::make_adaptive_farm_params(), tasks(10)}, opt);
  };
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(submit_with(kInf, 1.0), std::invalid_argument);
  EXPECT_THROW(submit_with(kNaN, 1.0), std::invalid_argument);
  EXPECT_THROW(submit_with(0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(submit_with(1.0, kNaN), std::invalid_argument);
  EXPECT_THROW(submit_with(1.0, 1.5), std::invalid_argument);
  EXPECT_EQ(service.jobs_submitted(), 0u);
}

TEST(GridService, DestructorFailsRunningJobsAndKeepsQueued) {
  // Two tenants run, a third waits in the queue and a fourth is scheduled
  // for later when the service goes away: the running engines observe a
  // premature end-of-stream and fail, the others never start.
  const gridsim::Grid grid = gridsim::make_uniform_grid(8, 100.0);
  core::SimBackend backend(grid);
  std::vector<JobHandle> handles;
  {
    GridService service(backend, grid, grid.node_ids());
    JobOptions half;
    half.max_share = 0.5;
    for (std::uint64_t j = 0; j < 3; ++j)
      handles.push_back(service.submit(
          FarmJob{core::make_adaptive_farm_params(), tasks(100, j + 1)},
          half));
    handles.push_back(service.submit_at(
        Seconds{100.0},
        FarmJob{core::make_adaptive_farm_params(), tasks(100, 4)}, half));
    ASSERT_EQ(service.jobs_running(), 2u);
    ASSERT_EQ(service.jobs_queued(), 1u);
  }
  for (std::size_t j = 0; j < 2; ++j) {
    SCOPED_TRACE(::testing::Message() << "running job " << j);
    EXPECT_EQ(handles[j].status(), JobStatus::Failed);
    EXPECT_EQ(handles[j].error_message(),
              "Calibrator: backend drained unexpectedly");
  }
  EXPECT_EQ(handles[2].status(), JobStatus::Queued);
  EXPECT_EQ(handles[3].status(), JobStatus::Queued);
}

TEST(GridService, PerJobTelemetryIsImportedUnderScopedPrefix) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(8, 100.0);
  core::SimBackend backend(grid);
  obs::Telemetry telemetry;
  GridService::Params params;
  params.telemetry = &telemetry;
  GridService service(backend, grid, grid.node_ids(), params);

  JobOptions half;
  half.max_share = 0.5;
  const JobHandle a = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(100, 1)}, half);
  const JobHandle b = service.submit(
      FarmJob{core::make_adaptive_farm_params(), tasks(100, 2)}, half);
  service.wait_all();
  ASSERT_EQ(a.status(), JobStatus::Completed);
  ASSERT_EQ(b.status(), JobStatus::Completed);

  const obs::MetricsSnapshot snap = telemetry.metrics.snapshot();
  const obs::MetricsSnapshot job1 = obs::filter_snapshot(snap, "job.1.");
  const obs::MetricsSnapshot job2 = obs::filter_snapshot(snap, "job.2.");
  ASSERT_FALSE(job1.counters.empty());
  ASSERT_FALSE(job2.counters.empty());
  const auto counter_value = [](const obs::MetricsSnapshot& s,
                                const std::string& name) -> std::uint64_t {
    for (const auto& [n, v] : s.counters)
      if (n == name) return v;
    return 0;
  };
  EXPECT_EQ(counter_value(job1, "farm.tasks_completed"),
            a.farm_report().tasks_completed);
  EXPECT_EQ(counter_value(job2, "farm.tasks_completed"),
            b.farm_report().tasks_completed);

  // Service-level accounting lives unprefixed in the shared registry.
  EXPECT_EQ(counter_value(snap, "svc.jobs_completed"), 2u);

  // Each retired job grafted one span tree under a "job" root.
  std::size_t job_roots = 0;
  for (const auto& rec : telemetry.spans.records())
    if (rec.parent == 0 && std::string_view(rec.name) == "job") ++job_roots;
  EXPECT_EQ(job_roots, 2u);
}

TEST(GridService, JobMixStreamCompletesEveryArrival) {
  // An open-loop arrival stream over the application mix: every scheduled
  // job must terminate and account for its own tasks.
  const gridsim::Grid grid = gridsim::make_uniform_grid(10, 100.0);
  core::SimBackend backend(grid);
  GridService service(backend, grid, grid.node_ids());

  workloads::JobArrivalParams ap;
  ap.horizon = Seconds{600.0};
  ap.base_rate_per_s = 1.0 / 60.0;
  ap.kind_weights = {1.0, 1.0, 1.0};
  ap.seed = 9;
  const auto arrivals = workloads::make_job_arrivals(ap);
  ASSERT_GE(arrivals.size(), 3u);

  std::vector<JobHandle> handles;
  std::vector<std::size_t> sizes;
  for (const auto& arrival : arrivals) {
    const workloads::TaskSet ts = workloads::make_application_task_set(
        static_cast<workloads::ApplicationKind>(arrival.kind), arrival.seed);
    sizes.push_back(ts.size());
    JobOptions opt;
    opt.max_share = 0.4;
    handles.push_back(service.submit_at(
        arrival.at, FarmJob{core::make_adaptive_farm_params(), ts}, opt));
  }
  service.wait_all();

  for (std::size_t i = 0; i < handles.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "arrival " << i);
    ASSERT_EQ(handles[i].status(), JobStatus::Completed);
    EXPECT_EQ(handles[i].farm_report().tasks_completed +
                  handles[i].farm_report().calibration_tasks,
              sizes[i]);
    EXPECT_GE(handles[i].submitted_at().value, 0.0);
  }
  EXPECT_EQ(service.jobs_completed(), handles.size());
}

}  // namespace
}  // namespace grasp::svc
