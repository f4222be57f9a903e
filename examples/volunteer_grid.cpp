// Volunteer grid: the resilience subsystem end to end.
//
// A volunteer pool is the harshest membership environment GRASP can face:
// machines crash without warning, owners reclaim them mid-chunk, and new
// volunteers appear at any moment.  This example runs an adaptive farm over
// a churning 12-node pool with 4 late-joining volunteers, then prints the
// four-phase timeline — including the zero-width "recovery" records where
// the engine absorbed churn — and the resilience ledger.
//
//   ./volunteer_grid [key=value ...] [--trace-out t.json] [--metrics-out m.jsonl]
//   e.g.  ./volunteer_grid mtbf=120 --trace-out trace.json
//
// The trace carries the farm's chunk spans and one instant per membership,
// checkpoint or failover event the engine emitted.
#include <iostream>

#include "bench/common.hpp"
#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "core/grasp.hpp"
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
  const double mtbf = cfg.get_double("mtbf", 200.0);
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));

  // A churning volunteer pool: crashes stall whatever they were computing,
  // 70% of volunteers come back, spares trickle in over the first minutes.
  gridsim::ChurnScenarioParams scenario;
  scenario.grid.node_count = nodes;
  scenario.grid.dynamics = gridsim::Dynamics::Walk;
  scenario.grid.seed = seed;
  scenario.spare_nodes = spares;
  scenario.mtbf = mtbf;
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

  obs::Telemetry telemetry;  // detail on: spans + histograms recorded
  params.telemetry = &telemetry;
  obs::FlightRecorder flight(256);
  if (!obs_opts.flight_out.empty()) {
    flight.set_dump_path(obs_opts.flight_out);
    telemetry.flight = &flight;
  }

  core::GraspProgram program("volunteer-sweep");
  program.use_task_farm(params).with_tasks(tasks);
  const core::RunSummary summary = program.compile(grid).execute();
  const core::FarmReport& farm = *summary.farm;

  if (!bench::export_telemetry(telemetry, obs_opts)) return 1;

  std::cout << "application: " << summary.application
            << "  (pool: " << nodes << " volunteers + " << spares
            << " latecomers, mtbf " << mtbf << " s)\n\n"
            << "phase timeline (virtual seconds):\n";
  Table timeline({"phase", "began", "ended", "detail"});
  for (const auto& p : summary.phases)
    timeline.add_row({p.phase, Table::num(p.began.value, 2),
                      Table::num(p.ended.value, 2), p.detail});
  std::cout << timeline.to_string()
            << "feedback transitions: " << summary.feedback_transitions
            << "   membership transitions: " << summary.membership_transitions
            << "\n\nresilience ledger:\n";

  const auto& res = farm.resilience;
  Table ledger({"metric", "value"});
  ledger.add_row({"tasks completed",
                  Table::num(static_cast<long long>(
                      farm.tasks_completed + farm.calibration_tasks))});
  ledger.add_row({"crashes detected",
                  Table::num(static_cast<long long>(res.crashes_detected))});
  ledger.add_row({"graceful leaves",
                  Table::num(static_cast<long long>(res.leaves))});
  ledger.add_row({"joins observed",
                  Table::num(static_cast<long long>(res.joins))});
  ledger.add_row({"joiners admitted",
                  Table::num(static_cast<long long>(res.admissions))});
  ledger.add_row({"chunks lost to crashes",
                  Table::num(static_cast<long long>(res.chunks_lost))});
  ledger.add_row({"tasks re-dispatched",
                  Table::num(static_cast<long long>(res.tasks_redispatched))});
  ledger.add_row({"zombie completions discarded",
                  Table::num(static_cast<long long>(res.zombie_completions))});
  ledger.add_row({"wasted work (Mops)", Table::num(res.wasted_mops, 0)});
  std::cout << ledger.to_string();

  std::cout << "\nmakespan: " << Table::num(farm.makespan.value, 1)
            << " s over a pool that lost " << res.crashes_detected
            << " member(s) and gained " << res.admissions
            << " — every task accounted for exactly once.\n";
  return 0;
}
