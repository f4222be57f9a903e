// Grid weather: the resource-monitoring substrate on its own.
//
// Watches a dynamic grid for ten simulated minutes, then scores every
// forecaster (last value, running mean, sliding median, EWMA, AR(1)) on
// one-step-ahead CPU-load prediction — the information GRASP's statistical
// calibration consumes.  Each forecaster's per-node errors are then
// averaged over the grid.
//
//   ./grid_weather [key=value ...]   e.g. nodes=8 minutes=20 dynamics=bursty
#include <cmath>
#include <iostream>
#include <map>

#include "gridsim/scenarios.hpp"
#include "perfmon/forecaster.hpp"
#include "perfmon/sensor.hpp"
#include "support/config.hpp"
#include "support/table.hpp"

int main(int argc, char** argv) {
  using namespace grasp;

  Config cfg;
  cfg.override_with({argv + 1, argv + argc});
  const auto nodes = cfg.get_count("nodes", 8);
  const double minutes = cfg.get_double("minutes", 10.0);
  const auto dynamics =
      gridsim::dynamics_from_string(cfg.get_string("dynamics", "mixed"));

  gridsim::ScenarioParams sp;
  sp.node_count = nodes;
  sp.dynamics = dynamics;
  sp.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));
  const gridsim::Grid grid = gridsim::make_grid(sp);

  const char* forecaster_names[] = {"last_value", "running_mean",
                                    "sliding_median", "ewma", "ar1", "meta"};

  // Score every forecaster on every node's load series, then average each
  // forecaster's RMSE over the nodes (summed in node order, so the mean is
  // a pure function of the grid).
  perfmon::CpuLoadSensor sensor(grid, perfmon::NoiseModel::none());
  std::map<std::string, double> mean_rmse;
  for (const char* name : forecaster_names) {
    double total = 0.0;
    for (std::size_t n = 0; n < nodes; ++n) {
      const NodeId node{n};
      const auto f = perfmon::make_forecaster(name);
      double sq_err = 0.0;
      std::size_t predictions = 0;
      for (double t = 1.0; t <= minutes * 60.0; t += 1.0) {
        const perfmon::Sample s = sensor.sample(node, Seconds{t});
        if (!std::isnan(f->forecast()) && t > 1.0) {
          const double err = f->forecast() - s.value;
          sq_err += err * err;
          ++predictions;
        }
        f->observe(s);
      }
      const double rmse =
          predictions > 0 ? std::sqrt(sq_err / static_cast<double>(predictions))
                          : 0.0;
      total += rmse;
    }
    mean_rmse[name] = total / static_cast<double>(nodes);
  }

  std::cout << "grid weather report — " << nodes << " nodes, "
            << gridsim::to_string(dynamics) << " dynamics, "
            << minutes << " simulated minutes, 1 Hz sampling\n\n";
  Table table({"forecaster", "mean_rmse_load"});
  for (const char* name : forecaster_names)
    table.add_row({name, Table::num(mean_rmse[name], 4)});
  std::cout << table.to_string()
            << "\n(lower is better; which forecaster wins depends on the "
               "dynamics — try\n dynamics=walk, bursty, diurnal, stable)\n";
  return 0;
}
