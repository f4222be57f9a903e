// Parameter-sweep farm: rendering the Mandelbrot set tile-by-tile.
//
// The classic irregular sweep: tiles near the set cost orders of magnitude
// more than far-field tiles (costs are derived from real escape-time
// iteration counts, see workloads/kernels.hpp).  The example runs the sweep
// on a two-site non-dedicated grid three ways — static block, demand-driven,
// GRASP adaptive — and prints per-node work shares so the effect of
// calibrated selection is visible.
//
//   ./param_sweep_farm [key=value ...]   e.g. tiles=24 nodes=24 seed=3
#include <algorithm>
#include <iostream>

#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "core/task_farm.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/telemetry.hpp"
#include "support/config.hpp"
#include "support/table.hpp"
#include "workloads/applications.hpp"

int main(int argc, char** argv) {
  using namespace grasp;

  Config cfg;
  cfg.override_with({argv + 1, argv + argc});
  const auto tiles = cfg.get_count("tiles", 20);
  const auto nodes = cfg.get_count("nodes", 20);
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));

  workloads::MandelbrotSweepParams mp;
  mp.tiles_x = tiles;
  mp.tiles_y = tiles;
  mp.max_iterations = 768;
  const workloads::TaskSet sweep = workloads::make_mandelbrot_sweep(mp);
  std::cout << "workload: " << sweep.name << " — " << sweep.size()
            << " tiles, total " << Table::num(sweep.total_work().value, 0)
            << " Mops (min/max tile cost ratio shows the irregularity)\n\n";

  gridsim::ScenarioParams sp;
  sp.node_count = nodes;
  sp.dynamics = gridsim::Dynamics::Mixed;
  sp.swamped_fraction = 0.15;
  sp.seed = seed;

  Table results({"scheduler", "makespan_s", "tiles_per_s"});
  core::FarmReport adaptive_report;
  {
    gridsim::Grid grid = gridsim::make_grid(sp);
    core::SimBackend backend(grid);
    const auto r =
        core::StaticBlockFarm().run(backend, grid.node_ids(), sweep);
    results.add_row({"static block", Table::num(r.makespan.value, 1),
                     Table::num(static_cast<double>(r.tasks_completed) /
                                    r.makespan.value,
                                2)});
  }
  {
    gridsim::Grid grid = gridsim::make_grid(sp);
    core::SimBackend backend(grid);
    const auto r = core::TaskFarm(core::make_demand_farm_params())
                       .run(backend, grid, grid.node_ids(), sweep);
    results.add_row({"demand-driven", Table::num(r.makespan.value, 1),
                     Table::num(r.throughput(), 2)});
  }
  {
    gridsim::Grid grid = gridsim::make_grid(sp);
    core::SimBackend backend(grid);
    // Detail telemetry keeps the per-task trace records the work-share
    // table below counts.
    obs::Telemetry telemetry(/*detail=*/true);
    core::FarmParams params = core::make_adaptive_farm_params();
    params.telemetry = &telemetry;
    adaptive_report =
        core::TaskFarm(params).run(backend, grid, grid.node_ids(), sweep);
    results.add_row({"GRASP adaptive",
                     Table::num(adaptive_report.makespan.value, 1),
                     Table::num(adaptive_report.throughput(), 2)});
  }
  std::cout << results.to_string() << '\n';

  // Who did the work?  Completions per node under the adaptive run.
  std::vector<std::size_t> per_node(nodes, 0);
  for (const auto& e : adaptive_report.trace.events())
    if (e.kind == gridsim::TraceEventKind::TaskCompleted)
      ++per_node[e.node.value];
  const gridsim::Grid grid = gridsim::make_grid(sp);
  Table shares({"node", "base_mops", "swamped", "tiles_done"});
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto& n = grid.node(NodeId{i});
    const bool swamped = n.load_at(Seconds{0.0}) > 10.0;
    shares.add_row({n.name(), Table::num(n.base_speed_mops(), 0),
                    swamped ? "yes" : "no", std::to_string(per_node[i])});
  }
  std::cout << shares.to_string()
            << "\nnote how swamped nodes receive (almost) no tiles: "
               "calibration excluded them.\n";
  return 0;
}
