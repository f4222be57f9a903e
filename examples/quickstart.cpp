// Quickstart: the complete GRASP flow in ~40 lines.
//
// Builds a 16-node heterogeneous grid with mixed dynamic load, runs an
// irregular 2000-task farm through the four-phase driver, and prints the
// phase timeline plus the adaptive-vs-static comparison.
//
//   ./quickstart [key=value ...]     e.g.  ./quickstart nodes=32 tasks=4000
#include <iostream>

#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "core/grasp.hpp"
#include "gridsim/scenarios.hpp"
#include "support/config.hpp"
#include "support/table.hpp"
#include "workloads/generators.hpp"

int main(int argc, char** argv) {
  using namespace grasp;

  Config cfg;
  cfg.override_with({argv + 1, argv + argc});
  const auto nodes = cfg.get_count("nodes", 16);
  const auto task_count = cfg.get_count("tasks", 2000);
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));

  // A non-dedicated heterogeneous grid: 2 sites, mixed background dynamics.
  gridsim::ScenarioParams scenario;
  scenario.node_count = nodes;
  scenario.dynamics = gridsim::Dynamics::Mixed;
  scenario.seed = seed;
  gridsim::Grid grid = gridsim::make_grid(scenario);

  // An irregular workload: lognormal task costs (cv = 1.0).
  workloads::TaskSetParams wl;
  wl.count = task_count;
  wl.mean_mops = 120.0;
  wl.cv = 1.0;
  wl.seed = seed + 1;
  const workloads::TaskSet tasks = workloads::make_task_set(wl);

  // --- The four-phase GRASP flow. ---------------------------------------
  core::GraspProgram program("quickstart-sweep");
  program.use_task_farm(core::make_adaptive_farm_params())
      .with_tasks(tasks);
  core::GraspExecutable exe = program.compile(grid);
  const core::RunSummary summary = exe.execute();

  std::cout << "application: " << summary.application << "  (skeleton: "
            << summary.skeleton << ")\n\nphase timeline (virtual seconds):\n";
  Table timeline({"phase", "began", "ended", "detail"});
  for (const auto& p : summary.phases)
    timeline.add_row({p.phase, Table::num(p.began.value, 2),
                      Table::num(p.ended.value, 2), p.detail});
  std::cout << timeline.to_string();
  std::cout << "feedback transitions (execution -> calibration): "
            << summary.feedback_transitions << "\n\n";

  const core::FarmReport& farm = *summary.farm;

  // --- Compare with the non-adaptive baseline on the same grid. ---------
  core::SimBackend static_backend(grid);
  core::StaticBlockFarm static_farm;
  const core::BaselineReport block =
      static_farm.run(static_backend, grid.node_ids(), tasks);

  Table results({"scheduler", "makespan_s", "throughput_tasks_per_s"});
  results.add_row({"GRASP adaptive farm", Table::num(farm.makespan.value, 1),
                   Table::num(farm.throughput(), 2)});
  results.add_row({"static block farm", Table::num(block.makespan.value, 1),
                   Table::num(static_cast<double>(block.tasks_completed) /
                                  block.makespan.value,
                              2)});
  std::cout << results.to_string() << '\n';
  std::cout << "adaptive speedup over static: "
            << Table::num(block.makespan.value / farm.makespan.value, 2)
            << "x  (recalibrations: " << farm.recalibrations
            << ", reissues: " << farm.reissues << ")\n";
  return 0;
}
