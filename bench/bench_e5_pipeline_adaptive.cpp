// E5 ([7]-style figure): adaptive pipeline throughput under stage
// degradation.
//
// The image pipeline (decode/denoise/segment/annotate/encode) runs on a
// 7-node cluster.  At t=120 the node hosting the heavy "segment" stage is
// hit with external load.  We print the throughput time series (items per
// 30 s bucket) for the static and adaptive pipelines — the adaptive one
// remaps the bottleneck stage to a spare and recovers — plus the summary.
// Pass `csv=<path>` to also dump the series as CSV for replotting.
#include <cmath>

#include "bench/common.hpp"
#include "support/config.hpp"
#include "support/csv.hpp"
#include "workloads/applications.hpp"

using namespace grasp;

namespace {

gridsim::Grid build_grid(NodeId victim) {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("cluster", Seconds{1e-4}, BytesPerSecond{1e9});
  for (int i = 0; i < 7; ++i) b.add_node(s, 150.0);
  gridsim::Grid grid = b.build();
  if (victim.is_valid())
    gridsim::inject_load_step_on(grid, victim, Seconds{120.0}, 4.0);
  return grid;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  cfg.override_with({argv + 1, argv + argc});
  bench::print_experiment_header(
      "E5 — adaptive pipeline: bottleneck remap restores throughput",
      "segment stage's node degrades at t=120 s; the adaptive pipeline "
      "remaps the stage\nto a spare node, the static mapping rides the "
      "bottleneck to the end");

  const auto spec = workloads::make_image_pipeline(
      {.frame_bytes = 256e3, .work_scale = 1.0, .stages = 5});
  const std::size_t items = 600;

  // Discover which node gets the heavy stage, then script its degradation.
  NodeId victim;
  {
    gridsim::Grid grid = build_grid(NodeId::invalid());
    core::SimBackend backend(grid);
    core::PipelineParams params;
    params.adaptation_enabled = false;
    const auto probe =
        core::Pipeline(params).run(backend, grid, grid.node_ids(), spec, 5);
    victim = probe.final_mapping[2];  // "segment"
  }

  auto run = [&](bool adaptive) {
    gridsim::Grid grid = build_grid(victim);
    core::SimBackend backend(grid);
    core::PipelineParams params;
    params.adaptation_enabled = adaptive;
    params.threshold.z = 1.8;
    // Detail tier: the throughput series reads the per-item trace records.
    obs::Telemetry telemetry(/*detail=*/true);
    params.telemetry = &telemetry;
    return core::Pipeline(params).run(backend, grid, grid.node_ids(), spec,
                                      items);
  };
  const core::PipelineReport adaptive = run(true);
  const core::PipelineReport frozen = run(false);

  // ~40 buckets regardless of how long the static run drags on.
  const Seconds horizon{std::max(adaptive.makespan.value,
                                 frozen.makespan.value)};
  const Seconds bucket{std::max(10.0, std::ceil(horizon.value / 40.0))};
  const auto a_series = adaptive.trace.throughput_series(bucket, horizon);
  const auto f_series = frozen.trace.throughput_series(bucket, horizon);

  std::cout << "figure series — items completed per " << bucket.value
            << " s bucket:\n";
  Table series({"t_bucket_s", "static", "adaptive"});
  for (std::size_t i = 0; i < a_series.size(); ++i)
    series.add_row({Table::num(static_cast<double>(i) * bucket.value, 0),
                    Table::num(i < f_series.size() ? f_series[i] : 0.0, 0),
                    Table::num(a_series[i], 0)});
  std::cout << series.to_string();

  if (const auto csv_path = cfg.get(std::string("csv"))) {
    CsvWriter csv(*csv_path, {"t_bucket_s", "static", "adaptive"});
    for (std::size_t i = 0; i < a_series.size(); ++i)
      csv.add_row({Table::num(static_cast<double>(i) * bucket.value, 0),
                   Table::num(i < f_series.size() ? f_series[i] : 0.0, 0),
                   Table::num(a_series[i], 0)});
    std::cout << "(series written to " << *csv_path << ")\n";
  }

  std::cout << "\nsummary:\n";
  Table summary({"variant", "makespan_s", "throughput_items_per_s",
                 "mean_latency_s", "p95_latency_s", "remaps", "in_order"});
  auto row = [&](const char* name, const core::PipelineReport& r) {
    summary.add_row({name, Table::num(r.makespan.value, 1),
                     Table::num(r.throughput(), 3),
                     Table::num(r.mean_latency_s, 2),
                     Table::num(r.p95_latency_s, 2),
                     std::to_string(r.remaps),
                     r.output_in_order ? "yes" : "NO"});
  };
  row("static", frozen);
  row("adaptive", adaptive);
  std::cout << summary.to_string();
  std::cout << "\nspeedup adaptive vs static: "
            << Table::num(frozen.makespan.value / adaptive.makespan.value, 2)
            << "x\nexpected shape: both variants match before t=120; the "
               "static series collapses\nafter the injection while the "
               "adaptive series dips once (remap) then recovers to\nnear the "
               "pre-injection rate; adaptive makespan clearly lower; order "
               "preserved.\n";
  return 0;
}
