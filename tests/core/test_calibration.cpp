#include "core/calibration.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "core/backend_sim.hpp"
#include "gridsim/scenarios.hpp"
#include "workloads/generators.hpp"

namespace grasp::core {
namespace {

workloads::TaskSet tasks(std::size_t n, double mops = 100.0) {
  workloads::TaskSetParams p;
  p.count = n;
  p.mean_mops = mops;
  p.distribution = workloads::CostDistribution::Constant;
  return workloads::make_task_set(p);
}

/// Dedicated grid with planted speeds (node i speed = speeds[i]).
gridsim::Grid planted_grid(const std::vector<double>& speeds) {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (const double sp : speeds) b.add_node(s, sp);
  return b.build();
}

TEST(Calibrator, PicksFastestNodesOnDedicatedGrid) {
  const gridsim::Grid grid = planted_grid({50.0, 400.0, 100.0, 200.0});
  SimBackend backend(grid);
  TaskSource src(tasks(16));
  TokenAllocator tok;
  CalibrationParams p;
  p.select_count = 2;
  Calibrator cal(task_farm_traits(), p);
  const CalibrationResult result =
      cal.run(backend, grid.node_ids(), src, nullptr, nullptr, tok);
  ASSERT_EQ(result.chosen.size(), 2u);
  EXPECT_EQ(result.chosen[0], NodeId{1});  // 400 Mops
  EXPECT_EQ(result.chosen[1], NodeId{3});  // 200 Mops
  EXPECT_TRUE(result.contains(NodeId{1}));
  EXPECT_FALSE(result.contains(NodeId{0}));
}

TEST(Calibrator, RankingIsCompleteAndSorted) {
  const gridsim::Grid grid = planted_grid({50.0, 400.0, 100.0, 200.0});
  SimBackend backend(grid);
  TaskSource src(tasks(16));
  TokenAllocator tok;
  Calibrator cal(task_farm_traits(), {});
  const CalibrationResult result =
      cal.run(backend, grid.node_ids(), src, nullptr, nullptr, tok);
  ASSERT_EQ(result.ranking.size(), 4u);
  for (std::size_t i = 1; i < result.ranking.size(); ++i)
    EXPECT_LE(result.ranking[i - 1].adjusted_spm,
              result.ranking[i].adjusted_spm);
}

TEST(Calibrator, SelectFractionRoundsUpAndKeepsAtLeastOne) {
  const gridsim::Grid grid = planted_grid({100.0, 100.0, 100.0});
  SimBackend backend(grid);
  TaskSource src(tasks(16));
  TokenAllocator tok;
  CalibrationParams p;
  p.select_fraction = 0.5;
  Calibrator cal(task_farm_traits(), p);
  const auto result =
      cal.run(backend, grid.node_ids(), src, nullptr, nullptr, tok);
  EXPECT_EQ(result.chosen.size(), 2u);  // ceil(0.5 * 3)

  CalibrationParams tiny;
  tiny.select_fraction = 0.01;
  SimBackend backend2(grid);
  TaskSource src2(tasks(16));
  TokenAllocator tok2;
  Calibrator cal2(task_farm_traits(), tiny);
  EXPECT_EQ(
      cal2.run(backend2, grid.node_ids(), src2, nullptr, nullptr, tok2)
          .chosen.size(),
      1u);
}

TEST(Calibrator, ConsumesRealTasksAndMarksThemComplete) {
  const gridsim::Grid grid = planted_grid({100.0, 100.0});
  SimBackend backend(grid);
  TaskSource src(tasks(10));
  TokenAllocator tok;
  Calibrator cal(task_farm_traits(), {});
  const auto result =
      cal.run(backend, grid.node_ids(), src, nullptr, nullptr, tok);
  EXPECT_EQ(result.tasks_consumed, 2u);  // one sample per node
  EXPECT_EQ(src.completed(), 2u);
  EXPECT_EQ(src.remaining(), 8u);
}

TEST(Calibrator, UsesProbesWhenQueueRunsDry) {
  const gridsim::Grid grid = planted_grid({100.0, 100.0, 100.0, 100.0});
  SimBackend backend(grid);
  TaskSource src(tasks(2));  // fewer tasks than nodes
  TokenAllocator tok;
  Calibrator cal(task_farm_traits(), {});
  const auto result =
      cal.run(backend, grid.node_ids(), src, nullptr, nullptr, tok);
  EXPECT_EQ(result.tasks_consumed, 2u);
  EXPECT_EQ(result.ranking.size(), 4u);  // every node still ranked
  EXPECT_TRUE(src.all_done());
}

TEST(Calibrator, MultipleSamplesPerNode) {
  const gridsim::Grid grid = planted_grid({100.0, 100.0});
  SimBackend backend(grid);
  TaskSource src(tasks(10));
  TokenAllocator tok;
  CalibrationParams p;
  p.samples_per_node = 3;
  Calibrator cal(task_farm_traits(), p);
  const auto result =
      cal.run(backend, grid.node_ids(), src, nullptr, nullptr, tok);
  EXPECT_EQ(result.tasks_consumed, 6u);
}

TEST(Calibrator, LoadedNodeRanksWorseWithTimeOnly) {
  // Two equal-speed nodes, one under heavy constant load.
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  b.add_node(s, 100.0);
  b.add_node(s, 100.0, std::make_unique<gridsim::ConstantLoad>(3.0));
  const gridsim::Grid grid = b.build();
  SimBackend backend(grid);
  TaskSource src(tasks(8));
  TokenAllocator tok;
  CalibrationParams p;
  p.select_count = 1;
  Calibrator cal(task_farm_traits(), p);
  const auto result =
      cal.run(backend, grid.node_ids(), src, nullptr, nullptr, tok);
  EXPECT_EQ(result.chosen[0], NodeId{0});
}

TEST(Calibrator, UnivariateAdjustmentCreditsTransientLoad) {
  // Four nodes, same base speed.  Node 3 is fast but carries a transient
  // load that disappears at t=0.5 (before the forecastable future); nodes
  // 0-2 carry modest permanent loads.  Time-only ranks node 3 last; the
  // univariate adjustment should recognise the load-time relation and
  // rank node 3 above at least one permanently loaded node.
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  b.add_node(s, 100.0, std::make_unique<gridsim::ConstantLoad>(1.0));
  b.add_node(s, 100.0, std::make_unique<gridsim::ConstantLoad>(1.2));
  b.add_node(s, 100.0, std::make_unique<gridsim::ConstantLoad>(1.4));
  b.add_node(s, 100.0,
             std::make_unique<gridsim::StepLoad>(
                 std::vector<gridsim::StepLoad::Segment>{
                     {Seconds{2.0}, 0.0}},
                 4.0));  // heavy load that vanishes at t=2
  const gridsim::Grid grid = b.build();

  auto run_with = [&](RankingStrategy strategy) {
    SimBackend backend(grid);
    TaskSource src(tasks(8, 100.0));
    TokenAllocator tok;
    perfmon::MonitorDaemon::Params mp;
    mp.period = Seconds{0.5};
    mp.forecaster = "last_value";
    perfmon::MonitorDaemon monitor(grid, grid.node_ids(), mp);
    CalibrationParams p;
    p.strategy = strategy;
    p.select_count = 4;
    Calibrator cal(task_farm_traits(), p);
    // Let the monitor observe the post-step world before ranking: warm it
    // to t=4 (task samples will run after that point in virtual time).
    monitor.advance_to(Seconds{4.0});
    return cal.run(backend, grid.node_ids(), src, &monitor, nullptr, tok);
  };

  const auto time_only = run_with(RankingStrategy::TimeOnly);
  // Time-only: node 3 observed slowest (its sample ran under load 4).
  EXPECT_EQ(time_only.ranking.back().node, NodeId{3});

  const auto univariate = run_with(RankingStrategy::Univariate);
  // Statistical: node 3's forecast load is 0, so its adjusted time
  // improves; it must no longer be ranked dead last.
  EXPECT_NE(univariate.ranking.back().node, NodeId{3});
}

TEST(Calibrator, EmptyPoolThrows) {
  const gridsim::Grid grid = planted_grid({100.0});
  SimBackend backend(grid);
  TaskSource src(tasks(4));
  TokenAllocator tok;
  Calibrator cal(task_farm_traits(), {});
  EXPECT_THROW(
      (void)cal.run(backend, {}, src, nullptr, nullptr, tok),
      std::invalid_argument);
}

TEST(Calibrator, BadSelectFractionRejected) {
  CalibrationParams p;
  p.select_fraction = 0.0;
  EXPECT_THROW(Calibrator(task_farm_traits(), p), std::invalid_argument);
  p.select_fraction = 1.5;
  EXPECT_THROW(Calibrator(task_farm_traits(), p), std::invalid_argument);
  p.select_fraction = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Calibrator(task_farm_traits(), p), std::invalid_argument);
}

TEST(Calibrator, BadExclusionRatioRejected) {
  // A NaN or negative ratio would silently turn exclusion off.
  CalibrationParams p;
  p.exclusion_ratio = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(Calibrator(task_farm_traits(), p), std::invalid_argument);
  p.exclusion_ratio = -1.0;
  EXPECT_THROW(Calibrator(task_farm_traits(), p), std::invalid_argument);
  p.exclusion_ratio = std::numeric_limits<double>::infinity();
  EXPECT_THROW(Calibrator(task_farm_traits(), p), std::invalid_argument);
}

TEST(Calibrator, BaselineIsMeanOfChosen) {
  const gridsim::Grid grid = planted_grid({100.0, 200.0});
  SimBackend backend(grid);
  TaskSource src(tasks(8));
  TokenAllocator tok;
  CalibrationParams p;
  p.select_count = 2;
  Calibrator cal(task_farm_traits(), p);
  const auto result =
      cal.run(backend, grid.node_ids(), src, nullptr, nullptr, tok);
  const double mean_spm =
      (result.ranking[0].adjusted_spm + result.ranking[1].adjusted_spm) / 2.0;
  EXPECT_NEAR(result.baseline_spm, mean_spm, 1e-12);
  EXPECT_GT(result.finished, result.started);
}

TEST(Calibrator, ExclusionRatioDropsOnlyHarmfulNodes) {
  // Four healthy nodes and two buried under external load: with
  // select_fraction 1.0 + exclusion, exactly the swamped pair is dropped.
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (int i = 0; i < 4; ++i) b.add_node(s, 100.0);
  for (int i = 0; i < 2; ++i)
    b.add_node(s, 100.0, std::make_unique<gridsim::ConstantLoad>(20.0));
  const gridsim::Grid grid = b.build();
  SimBackend backend(grid);
  TaskSource src(tasks(12));
  TokenAllocator tok;
  CalibrationParams p;
  p.select_fraction = 1.0;
  p.exclusion_ratio = 4.0;
  Calibrator cal(task_farm_traits(), p);
  const auto result =
      cal.run(backend, grid.node_ids(), src, nullptr, nullptr, tok);
  EXPECT_EQ(result.chosen.size(), 4u);
  for (const NodeId n : result.chosen) EXPECT_LT(n.value, 4u);
}

TEST(Calibrator, ExclusionKeepsHomogeneousPoolIntact) {
  const gridsim::Grid grid = planted_grid({100.0, 100.0, 100.0, 100.0});
  SimBackend backend(grid);
  TaskSource src(tasks(8));
  TokenAllocator tok;
  CalibrationParams p;
  p.select_fraction = 1.0;
  p.exclusion_ratio = 4.0;
  Calibrator cal(task_farm_traits(), p);
  EXPECT_EQ(
      cal.run(backend, grid.node_ids(), src, nullptr, nullptr, tok)
          .chosen.size(),
      4u);
}

TEST(Calibrator, ExclusionNeverDropsBelowTwoNodes) {
  // Even when everything looks bad relative to... itself, at least two
  // nodes survive so the farm can run.
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  b.add_node(s, 100.0);
  b.add_node(s, 100.0, std::make_unique<gridsim::ConstantLoad>(30.0));
  b.add_node(s, 100.0, std::make_unique<gridsim::ConstantLoad>(30.0));
  const gridsim::Grid grid = b.build();
  SimBackend backend(grid);
  TaskSource src(tasks(8));
  TokenAllocator tok;
  CalibrationParams p;
  p.select_fraction = 1.0;
  p.exclusion_ratio = 1.01;  // absurdly aggressive
  Calibrator cal(task_farm_traits(), p);
  EXPECT_GE(
      cal.run(backend, grid.node_ids(), src, nullptr, nullptr, tok)
          .chosen.size(),
      2u);
}

TEST(Calibrator, StrategyNamesRoundTrip) {
  for (const RankingStrategy s :
       {RankingStrategy::TimeOnly, RankingStrategy::Univariate,
        RankingStrategy::Multivariate}) {
    EXPECT_EQ(ranking_strategy_from_string(to_string(s)), s);
  }
  EXPECT_THROW((void)ranking_strategy_from_string("x"),
               std::invalid_argument);
}

}  // namespace
}  // namespace grasp::core
