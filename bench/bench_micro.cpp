// M1-M5: google-benchmark microbenchmarks of the hot substrate paths.
//
// These time the *implementation* (host wall clock), unlike bench_e1..e10
// which report virtual-time results.  They guard against regressions in
//   M1  event queue push+drain throughput,
//   M2  the OLS fit used by statistical calibration,
//   M3  forecaster observe+forecast updates,
//   M4  the end-to-end simulated farm step rate,
//   M5  NodeModel::compute_time load integration,
//   M6  M4 with a telemetry sink attached, detail disabled (the
//       observability layer's disabled-path overhead; CI asserts it stays
//       within 2% of M4),
//   M7  M6 plus the diagnosis tier: SLO watchdogs armed and a flight
//       recorder attached (CI asserts it also stays within 2% of M4 —
//       the always-on monitoring path must be near-free).
// bench/run_micro.sh records them into BENCH_micro.json (the repo's
// wall-clock perf baseline); CI gates M1/M4/M6/M7 against it.
#include <benchmark/benchmark.h>

#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "core/task_farm.hpp"
#include "gridsim/event_queue.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "perfmon/forecaster.hpp"
#include "support/regression.hpp"
#include "support/rng.hpp"
#include "workloads/generators.hpp"

namespace {

using namespace grasp;

// M1: event queue push + drain throughput (payloads the size of the one
// SimBackend stores, so slot traffic matches the simulator's).
void BM_EventQueueScheduleDrain(benchmark::State& state) {
  struct Payload {
    std::uint64_t words[7];
  };
  const auto events = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    gridsim::EventQueue<Payload> q;
    for (std::size_t i = 0; i < events; ++i)
      q.push(Seconds{rng.uniform(0.0, 1e6)}, Payload{{i}});
    std::size_t drained = 0;
    while (q.pop()) ++drained;
    benchmark::DoNotOptimize(drained);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events) *
                          state.iterations());
}
BENCHMARK(BM_EventQueueScheduleDrain)->Arg(1024)->Arg(16384);

// M2: multivariate OLS fit at calibration-pool sizes.
void BM_MultivariateFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<std::vector<double>> rows;
  std::vector<double> ys;
  for (std::size_t i = 0; i < n; ++i) {
    rows.push_back({rng.uniform(0.0, 4.0), rng.uniform(0.0, 1.0)});
    ys.push_back(1.0 + 0.5 * rows.back()[0] + rng.normal(0.0, 0.05));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(fit_multivariate(rows, ys));
  }
}
BENCHMARK(BM_MultivariateFit)->Arg(16)->Arg(64)->Arg(256);

// M3: forecaster observe+forecast cycle.
void BM_ForecasterUpdate(benchmark::State& state) {
  const char* names[] = {"last_value", "running_mean", "sliding_median",
                         "ewma", "ar1"};
  const auto f = perfmon::make_forecaster(names[state.range(0)]);
  Rng rng(3);
  double t = 0.0;
  for (auto _ : state) {
    f->observe({Seconds{t}, rng.uniform(0.0, 4.0)});
    benchmark::DoNotOptimize(f->forecast());
    t += 1.0;
  }
}
BENCHMARK(BM_ForecasterUpdate)->DenseRange(0, 4)->ArgNames({"forecaster"});

// M5: NodeModel::compute_time integration across random-walk load slots.
void BM_ComputeTimeIntegration(benchmark::State& state) {
  gridsim::RandomWalkLoad::Params lp;
  lp.slot = Seconds{1.0};
  gridsim::NodeModel::Params np;
  np.id = NodeId{0};
  np.site = SiteId{0};
  np.base_speed_mops = 100.0;
  np.load = std::make_unique<gridsim::RandomWalkLoad>(lp, 7);
  const gridsim::NodeModel node(std::move(np));
  double start = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.compute_time(Mops{500.0}, Seconds{start}));
    start += 0.1;
  }
}
BENCHMARK(BM_ComputeTimeIntegration);

// M4: whole simulated farm runs per second (the experiment engine's speed).
void BM_SimulatedFarmRun(benchmark::State& state) {
  gridsim::ScenarioParams sp;
  sp.node_count = 16;
  sp.dynamics = gridsim::Dynamics::Mixed;
  sp.seed = 5;
  workloads::TaskSetParams tp;
  tp.count = 500;
  tp.seed = 6;
  const workloads::TaskSet tasks = workloads::make_task_set(tp);
  for (auto _ : state) {
    gridsim::Grid grid = gridsim::make_grid(sp);
    core::SimBackend backend(grid);
    core::FarmReport report =
        core::TaskFarm(core::make_adaptive_farm_params())
            .run(backend, grid, grid.node_ids(), tasks);
    benchmark::DoNotOptimize(report.makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tp.count) *
                          state.iterations());
}
BENCHMARK(BM_SimulatedFarmRun)->Unit(benchmark::kMillisecond);

// M6: M4 with an attached telemetry sink, detail disabled — what a run
// costs when the caller wires a registry but leaves histograms/spans off.
// Identical scenario to M4 so run_micro.sh can compare items/s directly.
void BM_SimulatedFarmRunTelemetry(benchmark::State& state) {
  gridsim::ScenarioParams sp;
  sp.node_count = 16;
  sp.dynamics = gridsim::Dynamics::Mixed;
  sp.seed = 5;
  workloads::TaskSetParams tp;
  tp.count = 500;
  tp.seed = 6;
  const workloads::TaskSet tasks = workloads::make_task_set(tp);
  obs::Telemetry telemetry(/*detail=*/false);
  core::FarmParams params = core::make_adaptive_farm_params();
  params.telemetry = &telemetry;
  for (auto _ : state) {
    gridsim::Grid grid = gridsim::make_grid(sp);
    core::SimBackend backend(grid);
    core::FarmReport report =
        core::TaskFarm(params).run(backend, grid, grid.node_ids(), tasks);
    benchmark::DoNotOptimize(report.makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tp.count) *
                          state.iterations());
}
BENCHMARK(BM_SimulatedFarmRunTelemetry)->Unit(benchmark::kMillisecond);

// M7: M6 plus the online diagnosis tier — SLO watchdogs armed (bounds
// loose enough that a healthy run never breaches, so this times the
// checking, not the alerting) and a flight recorder absorbing event
// notes.  Same scenario as M4/M6 for direct items/s comparison.
void BM_SimulatedFarmRunDiagnosis(benchmark::State& state) {
  gridsim::ScenarioParams sp;
  sp.node_count = 16;
  sp.dynamics = gridsim::Dynamics::Mixed;
  sp.seed = 5;
  workloads::TaskSetParams tp;
  tp.count = 500;
  tp.seed = 6;
  const workloads::TaskSet tasks = workloads::make_task_set(tp);
  obs::Telemetry telemetry(/*detail=*/false);
  obs::FlightRecorder flight;
  telemetry.flight = &flight;
  core::FarmParams params = core::make_adaptive_farm_params();
  params.telemetry = &telemetry;
  params.slos.heartbeat_staleness_s = 1e6;
  params.slos.detection_latency_s = 1e6;
  params.slos.wasted_mops_rate = 1e12;
  params.slos.calibration_stall_s = 1e6;
  for (auto _ : state) {
    gridsim::Grid grid = gridsim::make_grid(sp);
    core::SimBackend backend(grid);
    core::FarmReport report =
        core::TaskFarm(params).run(backend, grid, grid.node_ids(), tasks);
    benchmark::DoNotOptimize(report.makespan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(tp.count) *
                          state.iterations());
}
BENCHMARK(BM_SimulatedFarmRunDiagnosis)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
