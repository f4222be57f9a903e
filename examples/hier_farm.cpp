// Hierarchical farm-of-farms: sharded coordination at scale.
//
// One root node farms super-grants of tasks to K sub-farmers, each of
// which runs the full GRASP loop (calibration probes, adaptive chunks,
// failure detection) over its own worker shard.  Monitor rounds aggregate
// along an arity-4 reduction tree, so the root's event-loop load stays
// near-constant while the worker tier grows.  By default one sub-farmer
// is crashed mid-run to show the shard-local promotion: a standby inside
// the orphaned shard takes over, rolls back the un-replicated suffix of
// its completion log, and the root's exactly-once accounting never
// wobbles.
//
//   ./hier_farm [key=value ...] [--trace-out t.json] [--metrics-out m.jsonl]
//   e.g. ./hier_farm workers=64 per_shard=8 tasks=512 crash_at=30
//
// Set crash_at=0 to run churn-free.  --trace-out / --metrics-out export
// the usual Chrome-trace / JSONL telemetry; each shard's chunk spans show
// up as their own "shard" subtree.
#include <iostream>

#include "bench/common.hpp"
#include "core/backend_sim.hpp"
#include "core/hier_farm.hpp"
#include "obs/flight_recorder.hpp"
#include "support/config.hpp"
#include "support/table.hpp"
#include "workloads/generators.hpp"

int main(int argc, char** argv) {
  using namespace grasp;

  const bench::ObsOptions obs_opts = bench::parse_obs_options(argc, argv);
  Config cfg;
  cfg.override_with(bench::non_obs_args(argc, argv));
  const auto workers = cfg.get_count("workers", 32);
  const auto per_shard = cfg.get_count("per_shard", 8);
  const auto task_count = cfg.get_count("tasks", 8 * 32);
  const double crash_at = cfg.get_double("crash_at", 30.0);
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));

  // Node 0 is the root; workers cycle through an 8x speed spread so the
  // per-shard calibration has something real to discover.
  gridsim::GridBuilder gb;
  const SiteId site = gb.add_site("a");
  gb.add_node(site, 100.0);  // root
  const double speeds[] = {50.0, 100.0, 200.0, 400.0};
  for (std::size_t i = 0; i < workers; ++i)
    gb.add_node(site, speeds[i % 4]);
  gridsim::Grid grid = gb.build();

  // Work out who coordinates shard 0 and schedule its demise.
  std::vector<NodeId> pool;
  std::vector<double> pool_speeds;
  for (std::size_t i = 0; i < workers; ++i) {
    pool.push_back(NodeId{i + 1});
    pool_speeds.push_back(speeds[i % 4]);
  }
  const std::size_t shards =
      core::shard_count_for(workers, per_shard, 16);
  const auto plan = core::plan_shards(pool, pool_speeds, shards);
  if (crash_at > 0.0 && !plan.empty() && plan[0].size() > 1) {
    const NodeId victim = plan[0].front();
    grid.node(victim).add_downtime({Seconds{crash_at}, Seconds{1e9}});
    grid.set_churn(gridsim::ChurnTimeline(
        {{Seconds{crash_at}, gridsim::ChurnEventKind::Crash, victim}}));
    std::cout << "planted crash: sub-farmer of shard 0 (node "
              << victim.value << ") dies at t=" << crash_at << "s\n\n";
  }

  workloads::TaskSetParams wl;
  wl.count = task_count;
  wl.mean_mops = 2000.0;
  wl.cv = 0.6;
  wl.seed = seed + 1;
  const workloads::TaskSet tasks = workloads::make_task_set(wl);

  core::HierFarmParams params;
  params.workers_per_shard = per_shard;
  params.detector.heartbeat_period = Seconds{1.0};
  params.detector.timeout = Seconds{4.0};
  params.promotion_handshake = Seconds{2.0};

  obs::Telemetry telemetry;  // detail on: per-shard span subtrees
  params.telemetry = &telemetry;
  obs::FlightRecorder flight(256);
  if (!obs_opts.flight_out.empty()) {
    flight.set_dump_path(obs_opts.flight_out);
    telemetry.flight = &flight;
  }

  core::SimBackend backend(grid);
  const core::HierFarmReport r =
      core::HierFarm(params).run(backend, grid, grid.node_ids(), tasks);
  if (!bench::export_telemetry(telemetry, obs_opts)) return 1;

  std::cout << "hierarchy: 1 root + " << workers << " workers in "
            << r.shards << " shards (target " << per_shard
            << " workers each)\n\n";

  // The coordination timeline: sub-farmer losses and in-shard promotions.
  if (r.promotions > 0) {
    std::cout << "coordination timeline:\n";
    for (const auto& e : r.trace.events()) {
      const char* what = nullptr;
      switch (e.kind) {
        case gridsim::TraceEventKind::FarmerCrashDetected:
          what = "sub-farmer lost";
          break;
        case gridsim::TraceEventKind::FarmerPromoted:
          what = "promoted in-shard";
          break;
        default:
          continue;
      }
      std::cout << "  t=" << e.at.value << "s  node " << e.node.value
                << "  " << what;
      if (!e.note.empty()) std::cout << "  (" << e.note << ")";
      std::cout << "\n";
    }
    std::cout << "\n";
  }

  Table per_shard_t({"shard", "sub_farmer", "workers", "tasks", "grants",
                     "events", "capacity_mops"});
  for (std::size_t k = 0; k < r.shard_summaries.size(); ++k) {
    const auto& s = r.shard_summaries[k];
    per_shard_t.add_row(
        {Table::num(static_cast<long long>(k)),
         Table::num(static_cast<long long>(s.sub_farmer.value)),
         Table::num(static_cast<long long>(s.workers)),
         Table::num(static_cast<long long>(s.tasks_completed)),
         Table::num(static_cast<long long>(s.grants)),
         Table::num(static_cast<long long>(s.events)),
         Table::num(s.capacity_mops, 0)});
  }
  std::cout << per_shard_t.to_string() << "\n";

  Table summary({"metric", "value"});
  summary.add_row({"makespan_s", Table::num(r.makespan.value, 1)});
  summary.add_row({"tasks (incl. probes)",
                   Table::num(static_cast<long long>(
                       r.tasks_completed + r.calibration_tasks))});
  summary.add_row({"root events", Table::num(static_cast<long long>(
                                      r.root_events))});
  summary.add_row({"root events/vsec",
                   Table::num(r.root_events_per_vsec(), 2)});
  summary.add_row({"shard events", Table::num(static_cast<long long>(
                                       r.shard_events))});
  summary.add_row({"monitor rounds", Table::num(static_cast<long long>(
                                         r.monitor_rounds))});
  summary.add_row({"promotions", Table::num(static_cast<long long>(
                                     r.promotions))});
  summary.add_row({"redispatched tasks",
                   Table::num(static_cast<long long>(r.redispatched))});
  std::cout << summary.to_string();
  return 0;
}
