// Adaptive image-processing pipeline.
//
// Streams frames through decode -> denoise -> segment -> annotate -> encode
// on a small cluster.  Mid-run, the node carrying the dominant "segment"
// stage is reclaimed by its owner (heavy external load); the adaptive
// pipeline detects the bottleneck via its round-max threshold, remaps the
// stage to a spare node (paying an explicit state migration), and recovers.
//
//   ./image_pipeline [key=value ...]   e.g. frames=400 degrade_at=90
#include <iostream>

#include "core/backend_sim.hpp"
#include "core/pipeline.hpp"
#include "gridsim/scenarios.hpp"
#include "support/config.hpp"
#include "support/log.hpp"
#include "support/table.hpp"
#include "workloads/applications.hpp"

int main(int argc, char** argv) {
  using namespace grasp;

  Config cfg;
  cfg.override_with({argv + 1, argv + argc});
  if (cfg.get_bool("verbose", false)) set_log_level(LogLevel::Info);
  const auto frames = cfg.get_count("frames", 400);
  const double degrade_at = cfg.get_double("degrade_at", 120.0);
  const double extra_load = cfg.get_double("extra_load", 4.0);

  const auto spec = workloads::make_image_pipeline(
      {.frame_bytes = 256e3, .work_scale = 1.0, .stages = 5});
  std::cout << "pipeline: " << spec.name << " — stages:";
  for (const auto& s : spec.stages)
    std::cout << ' ' << s.name << '(' << s.work_per_item.value << " Mops)";
  std::cout << "\n\n";

  auto build = [&](NodeId victim) {
    gridsim::GridBuilder b;
    const SiteId s = b.add_site("cluster", Seconds{1e-4}, BytesPerSecond{1e9});
    for (int i = 0; i < 7; ++i) b.add_node(s, 150.0);
    gridsim::Grid grid = b.build();
    if (victim.is_valid())
      gridsim::inject_load_step_on(grid, victim, Seconds{degrade_at},
                                   extra_load);
    return grid;
  };

  // Find the segment stage's node, then script its reclamation.
  NodeId victim;
  {
    gridsim::Grid grid = build(NodeId::invalid());
    core::SimBackend backend(grid);
    core::PipelineParams probe_params;
    probe_params.adaptation_enabled = false;
    victim = core::Pipeline(probe_params)
                 .run(backend, grid, grid.node_ids(), spec, 3)
                 .final_mapping[2];
  }
  std::cout << "segment stage initially on node " << victim.value
            << "; that node is reclaimed at t=" << degrade_at << " s\n\n";

  gridsim::Grid grid = build(victim);
  core::SimBackend backend(grid);
  core::PipelineParams params;
  params.threshold.z = 1.8;
  const core::PipelineReport report =
      core::Pipeline(params).run(backend, grid, grid.node_ids(), spec, frames);

  Table stages({"stage", "final_node", "frames", "mean_service_s",
                "busy_fraction"});
  for (std::size_t s = 0; s < report.stages.size(); ++s) {
    const auto& st = report.stages[s];
    stages.add_row({spec.stages[s].name, std::to_string(st.node.value),
                    std::to_string(st.items), Table::num(st.mean_service_s, 3),
                    Table::num(st.busy_fraction, 2)});
  }
  std::cout << stages.to_string() << '\n';

  std::cout << "frames completed : " << report.items_completed << " / "
            << frames << (report.output_in_order ? " (in order)" : "") << '\n'
            << "makespan         : " << Table::num(report.makespan.value, 1)
            << " s\n"
            << "throughput       : " << Table::num(report.throughput(), 3)
            << " frames/s\n"
            << "frame latency    : mean "
            << Table::num(report.mean_latency_s, 2) << " s, p95 "
            << Table::num(report.p95_latency_s, 2) << " s\n"
            << "stage remaps     : " << report.remaps << '\n';
  for (const auto& e : report.trace.events()) {
    if (e.kind == gridsim::TraceEventKind::StageRemapped &&
        e.note == "migrating")
      std::cout << "  -> at t=" << Table::num(e.at.value, 1) << " s stage "
                << spec.stages[static_cast<std::size_t>(e.value)].name
                << " migrated to node " << e.node.value << '\n';
  }
  return 0;
}
