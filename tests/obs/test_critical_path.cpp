// Blame analysis over span DAGs: synthetic classification, the
// conservation law (per-cause seconds partition the makespan), recovery
// blame growing with churn pressure, and shard-group breakout on the
// hierarchical engine.
#include "obs/critical_path.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "core/hier_farm.hpp"
#include "core/task_farm.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/json.hpp"
#include "obs/telemetry.hpp"
#include "workloads/generators.hpp"

namespace grasp::obs {
namespace {

SpanRecord span(SpanId id, const char* name, double b, double e,
                NodeId node = NodeId::invalid(), const char* detail = "") {
  SpanRecord rec;
  rec.id = id;
  rec.name = name;
  rec.begin_s = b;
  rec.end_s = e;
  rec.node = node;
  rec.detail = detail;
  return rec;
}

SpanRecord marker(SpanId id, const char* name, double at, NodeId node) {
  SpanRecord rec;
  rec.id = id;
  rec.name = name;
  rec.begin_s = at;
  rec.end_s = at;
  rec.instant = true;
  rec.node = node;
  return rec;
}

// Hand-built run, makespan 100:
//   [0,10]   calibration (global)
//   [10,12]  gap with work ahead           -> dispatch wait
//   [12,40]  chunk on node 1 (completes)
//   [12,45]  chunk on node 2, ends "lost"  -> compute while running
//   45       crash_detected instant
//   [45,50]  gap right after the loss      -> detection+recovery
//   [50,55]  failover span
//   [55,90]  chunk on node 1
//   [90,100] nothing ever runs again       -> idle tail
TEST(CriticalPath, SyntheticTimelineClassifiesEveryCause) {
  std::vector<SpanRecord> spans;
  spans.push_back(span(1, "calibration", 0.0, 10.0));
  spans.push_back(span(2, "chunk", 12.0, 40.0, NodeId{1}, "complete"));
  spans.push_back(span(3, "chunk", 12.0, 45.0, NodeId{2}, "lost"));
  spans.push_back(marker(4, "crash_detected", 45.0, NodeId{2}));
  spans.push_back(span(5, "failover", 50.0, 55.0, NodeId{3}));
  spans.push_back(span(6, "chunk", 55.0, 90.0, NodeId{1}, "complete"));

  const BlameReport report = analyze_blame(spans, 100.0);
  EXPECT_DOUBLE_EQ(report.total.calibration_s, 10.0);
  EXPECT_DOUBLE_EQ(report.total.dispatch_wait_s, 2.0);
  EXPECT_DOUBLE_EQ(report.total.compute_s, 68.0);  // [12,45] + [55,90]
  EXPECT_DOUBLE_EQ(report.total.detection_recovery_s, 5.0);
  EXPECT_DOUBLE_EQ(report.total.failover_s, 5.0);
  EXPECT_DOUBLE_EQ(report.total.idle_tail_s, 10.0);
  EXPECT_DOUBLE_EQ(report.total.total(), 100.0);  // exact conservation

  // Critical path ends at the last compute span and chains backwards.
  ASSERT_FALSE(report.critical_path.empty());
  EXPECT_DOUBLE_EQ(report.critical_path.back().end_s, 90.0);
  EXPECT_EQ(report.critical_path.back().name, "chunk");
  EXPECT_DOUBLE_EQ(report.critical_path.front().begin_s, 0.0);

  // Per-node rows exist for every computing node, each summing to the
  // full window.
  ASSERT_GE(report.nodes.size(), 2u);
  for (const BlameGroup& g : report.nodes)
    EXPECT_NEAR(g.blame.total(), g.window_s, 1e-9) << g.key;

  // JSON export parses back and conserves the same totals.
  const auto parsed = parse_json(export_blame_json(report));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->find("makespan_s")->as_number(), 100.0);
  EXPECT_DOUBLE_EQ(parsed->find("blame_total_s")->as_number(), 100.0);
  EXPECT_DOUBLE_EQ(
      parsed->find("blame")->find("compute_s")->as_number(), 68.0);
}

TEST(CriticalPath, EmptyAndDegenerateInputsAreSafe) {
  EXPECT_DOUBLE_EQ(analyze_blame({}, 10.0).total.total(), 0.0);
  std::vector<SpanRecord> spans{span(1, "chunk", 0.0, 5.0, NodeId{1})};
  EXPECT_DOUBLE_EQ(analyze_blame(spans, 0.0).total.total(), 0.0);
  // Open span: clipped to the window, still conserves.
  std::vector<SpanRecord> open{span(1, "chunk", 2.0, -1.0, NodeId{1})};
  open[0].end_s = -1.0;
  const BlameReport r = analyze_blame(open, 10.0);
  EXPECT_NEAR(r.total.total(), 10.0, 1e-9);
  EXPECT_DOUBLE_EQ(r.total.compute_s, 8.0);
}

workloads::TaskSet gen_tasks(std::size_t n, std::uint64_t seed) {
  workloads::TaskSetParams p;
  p.count = n;
  p.mean_mops = 120.0;
  p.cv = 1.0;
  p.seed = seed;
  return workloads::make_task_set(p);
}

gridsim::Grid churn_grid(double mtbf) {
  gridsim::ChurnScenarioParams scenario;
  scenario.grid.node_count = 12;
  scenario.grid.dynamics = gridsim::Dynamics::Walk;
  scenario.grid.seed = 42;
  scenario.spare_nodes = 4;
  scenario.mtbf = mtbf;
  scenario.protected_prefix = 0;
  scenario.churn_seed = 49;
  return gridsim::make_churn_grid(scenario);
}

core::FarmParams resilient_params(Telemetry* telemetry) {
  core::FarmParams params = core::make_adaptive_farm_params();
  params.chunk_size = 4;
  params.resilience.enabled = true;
  params.resilience.detector.heartbeat_period = Seconds{1.0};
  params.resilience.detector.timeout = Seconds{5.0};
  params.resilience.checkpoint_period = Seconds{4.0};
  params.resilience.failover.standby_count = 1;
  params.telemetry = telemetry;
  return params;
}

BlameReport blame_of_churn_run(double mtbf, std::size_t* crashes = nullptr) {
  Telemetry telemetry(/*detail=*/true);
  gridsim::Grid grid = churn_grid(mtbf);
  core::SimBackend backend(grid);
  const core::FarmReport report =
      core::TaskFarm(resilient_params(&telemetry))
          .run(backend, grid, grid.node_ids(), gen_tasks(1000, 43));
  if (crashes != nullptr) *crashes = report.resilience.crashes_detected;
  return analyze_blame(telemetry.spans.records(), report.makespan.value);
}

TEST(CriticalPath, BlameConservesMakespanOnSeededChurnRun) {
  // mtbf 40 on a 12-node pool: stormy enough that crashes leave visible
  // detection/recovery seconds instead of being fully masked by compute.
  std::size_t crashes = 0;
  const BlameReport report = blame_of_churn_run(40.0, &crashes);
  ASSERT_GT(crashes, 0u);  // the scenario must actually churn
  ASSERT_GT(report.makespan_s, 0.0);
  const double drift =
      std::abs(report.total.total() - report.makespan_s) / report.makespan_s;
  EXPECT_LT(drift, 0.01);  // conservation within 1%
  EXPECT_GT(report.total.compute_s, 0.0);
  EXPECT_GT(report.total.calibration_s, 0.0);
  // A run with real crashes shows nonzero recovery-side blame.  With a
  // deep pool, detection gaps can be fully masked by still-running
  // compute, so the visible cost may land on the failover arc instead —
  // assert on their sum, the same quantity the MTBF sweep below tracks.
  EXPECT_GT(report.total.detection_recovery_s + report.total.failover_s,
            0.0);
}

TEST(CriticalPath, RecoveryBlameGrowsAsMtbfShrinks) {
  // Same workload, same seeds, three churn intensities: the pool must see
  // more crashes, and the seconds blamed on detection+recovery must not
  // shrink, as it fails more often; the stormiest row must cost strictly
  // more than the calmest, in seconds and as a share of the makespan.
  //
  // Adjacent rows are compared in seconds, not shares.  On this seed the
  // calm and middle rows each lose the farmer once (one 2 s standby
  // promotion), so their shares differ only through their makespans, which
  // a single recalibration sample can stretch by tens of seconds.
  double secs[3] = {0.0, 0.0, 0.0};
  double frac[3] = {0.0, 0.0, 0.0};
  std::size_t crashes[3] = {0, 0, 0};
  const double mtbf[3] = {400.0, 120.0, 40.0};  // calm -> stormy
  for (int i = 0; i < 3; ++i) {
    const BlameReport r = blame_of_churn_run(mtbf[i], &crashes[i]);
    ASSERT_GT(r.makespan_s, 0.0);
    secs[i] = r.total.detection_recovery_s + r.total.failover_s;
    frac[i] = secs[i] / r.makespan_s;
  }
  EXPECT_LE(crashes[0], crashes[1]);
  EXPECT_LE(crashes[1], crashes[2]);
  EXPECT_LE(secs[0], secs[1] + 1e-9);
  EXPECT_LE(secs[1], secs[2] + 1e-9);
  EXPECT_LT(secs[0], secs[2]);
  EXPECT_LE(frac[1], frac[2] + 1e-9);
  EXPECT_LT(frac[0], frac[2]);
}

TEST(CriticalPath, HierFarmRunYieldsShardGroups) {
  Telemetry telemetry(/*detail=*/true);
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  b.add_node(s, 100.0);  // root
  const double speeds[] = {50.0, 100.0, 200.0, 400.0};
  for (std::size_t i = 0; i < 24; ++i) b.add_node(s, speeds[i % 4]);
  const gridsim::Grid grid = b.build();

  core::HierFarmParams params;
  params.telemetry = &telemetry;
  core::SimBackend backend(grid);
  const core::HierFarmReport report =
      core::HierFarm(params).run(backend, grid, grid.node_ids(),
                                 gen_tasks(400, 7));
  ASSERT_GT(report.shards, 1u);

  const BlameReport blame =
      analyze_blame(telemetry.spans.records(), report.makespan.value);
  // Every shard subtree gets its own group row, blamed over its window.
  ASSERT_EQ(blame.groups.size(), report.shards);
  for (std::size_t k = 0; k < blame.groups.size(); ++k) {
    const BlameGroup& g = blame.groups[k];
    EXPECT_EQ(g.key, "shard." + std::to_string(k));
    EXPECT_GT(g.window_s, 0.0);
    EXPECT_NEAR(g.blame.total(), g.window_s, 0.01 * g.window_s);
    EXPECT_GT(g.blame.compute_s, 0.0);
  }
}

TEST(CriticalPath, PublishBlameSetsGaugesAndFractions) {
  std::vector<SpanRecord> spans;
  spans.push_back(span(1, "chunk", 0.0, 8.0, NodeId{1}));
  const BlameReport report = analyze_blame(spans, 10.0);
  MetricsRegistry reg;
  publish_blame(report, reg);
  EXPECT_DOUBLE_EQ(reg.gauge_value(reg.gauge("obs.blame.makespan_s")), 10.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value(reg.gauge("obs.blame.compute_s")), 8.0);
  EXPECT_DOUBLE_EQ(reg.gauge_value(reg.gauge("obs.blame.compute_frac")), 0.8);
  EXPECT_DOUBLE_EQ(
      reg.gauge_value(reg.gauge("obs.blame.idle_tail_s")), 2.0);
}

}  // namespace
}  // namespace grasp::obs
