// Farmer failover: surviving the loss of the coordinator itself.
//
// Every other churn demo protects node 0 — the farmer — because the
// paper's skeleton cannot adapt around its own coordinator.  This example
// drops that protection: the whole pool churns, one or more hot standbys
// shadow the farmer's state through the replication log, and when the
// farmer dies mid-run the lowest-id live standby takes over, reconciles
// raced completions, and the run still finishes with every task done
// exactly once.
//
//   ./farmer_failover [key=value ...] [--trace-out t.json] [--metrics-out m.jsonl]
//   e.g. ./farmer_failover mtbf=90 standbys=2 tasks=2000 --trace-out trace.json
//
// --trace-out writes a Chrome trace-event file of the run's causal spans
// (chunks, calibrations, checkpoint passes, the crash->promotion->handshake
// arc) plus the instants the engine emits for membership, checkpoint and
// failover events — load it in Perfetto / chrome://tracing.  --metrics-out
// writes the metrics registry and span stream as JSONL.
#include <iostream>

#include "bench/common.hpp"
#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "core/task_farm.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/flight_recorder.hpp"
#include "support/config.hpp"
#include "support/table.hpp"
#include "workloads/generators.hpp"

int main(int argc, char** argv) {
  using namespace grasp;

  const bench::ObsOptions obs_opts = bench::parse_obs_options(argc, argv);
  Config cfg;
  cfg.override_with(bench::non_obs_args(argc, argv));
  const auto nodes = cfg.get_count("nodes", 12);
  const auto spares = cfg.get_count("spares", 4);
  const auto task_count = cfg.get_count("tasks", 1500);
  const double mtbf = cfg.get_double("mtbf", 120.0);
  const auto standbys = cfg.get_count("standbys", 1);
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));

  // The harshest membership environment: nobody is protected, not even the
  // coordinator (protected_prefix = 0).
  gridsim::ChurnScenarioParams scenario;
  scenario.grid.node_count = nodes;
  scenario.grid.dynamics = gridsim::Dynamics::Walk;
  scenario.grid.seed = seed;
  scenario.spare_nodes = spares;
  scenario.mtbf = mtbf;
  scenario.protected_prefix = 0;
  scenario.churn_seed = seed + 7;
  gridsim::Grid grid = gridsim::make_churn_grid(scenario);

  workloads::TaskSetParams wl;
  wl.count = task_count;
  wl.mean_mops = 120.0;
  wl.cv = 1.0;
  wl.seed = seed + 1;
  const workloads::TaskSet tasks = workloads::make_task_set(wl);

  core::FarmParams params = core::make_adaptive_farm_params();
  params.chunk_size = 4;
  params.resilience.enabled = true;
  params.resilience.detector.heartbeat_period = Seconds{1.0};
  params.resilience.detector.timeout = Seconds{5.0};
  params.resilience.checkpoint_period = Seconds{4.0};
  params.resilience.failover.standby_count = standbys;
  params.resilience.failover.handshake = Seconds{2.0};

  obs::Telemetry telemetry;  // detail on: spans + histograms recorded
  params.telemetry = &telemetry;
  obs::FlightRecorder flight(256);
  if (!obs_opts.flight_out.empty()) {
    flight.set_dump_path(obs_opts.flight_out);
    telemetry.flight = &flight;
  }

  core::SimBackend backend(grid);
  const core::FarmReport farm =
      core::TaskFarm(params).run(backend, grid, grid.node_ids(), tasks);

  if (!bench::export_telemetry(telemetry, obs_opts)) return 1;

  std::cout << "farmer-failover run: " << nodes << " nodes + " << spares
            << " spares, mtbf=" << mtbf << " s, " << standbys
            << " hot standby(s), nobody protected\n\n";

  // The coordination timeline: crashes of the farmer, promotions, recruits.
  std::cout << "coordination timeline:\n";
  for (const auto& e : farm.trace.events()) {
    const char* what = nullptr;
    switch (e.kind) {
      case gridsim::TraceEventKind::FarmerCrashDetected:
        what = "farmer lost";
        break;
      case gridsim::TraceEventKind::FarmerPromoted:
        what = "promoted";
        break;
      case gridsim::TraceEventKind::StandbyRecruited:
        what = "standby recruited";
        break;
      default:
        continue;
    }
    std::cout << "  t=" << e.at.value << "s  node " << e.node.value << "  "
              << what;
    if (!e.note.empty()) std::cout << "  (" << e.note << ")";
    std::cout << "\n";
  }

  const auto& res = farm.resilience;
  Table summary({"metric", "value"});
  summary.add_row({"makespan_s", Table::num(farm.makespan.value, 1)});
  summary.add_row({"tasks_completed",
                   Table::num(static_cast<long long>(
                       farm.tasks_completed + farm.calibration_tasks))});
  summary.add_row(
      {"failovers", Table::num(static_cast<long long>(res.failovers))});
  summary.add_row({"failover_latency_s",
                   Table::num(res.failover_latency_s, 1)});
  summary.add_row({"results_rolled_back",
                   Table::num(static_cast<long long>(res.results_rolled_back))});
  summary.add_row({"standby_recruits",
                   Table::num(static_cast<long long>(res.standby_recruits))});
  summary.add_row({"replication_records",
                   Table::num(static_cast<long long>(res.replication_records))});
  summary.add_row({"replication_kb",
                   Table::num(res.replication_bytes / 1024.0, 0)});
  summary.add_row({"worker_crashes",
                   Table::num(static_cast<long long>(res.crashes_detected))});
  summary.add_row({"tasks_redispatched",
                   Table::num(static_cast<long long>(res.tasks_redispatched))});
  std::cout << "\n" << summary.to_string();

  const bool complete =
      farm.tasks_completed + farm.calibration_tasks == tasks.size();
  std::cout << "\n"
            << (complete ? "every task completed exactly once despite "
                           "coordinator loss"
                         : "INCOMPLETE RUN — conservation violated")
            << "\n";
  return complete ? 0 : 1;
}
