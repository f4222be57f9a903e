#include "perfmon/monitor.hpp"

#include <gtest/gtest.h>

#include "gridsim/load_model.hpp"
#include "gridsim/scenarios.hpp"

namespace grasp::perfmon {
namespace {

/// Two sites whose node loads and inter-site contention all move with
/// time, each node on its own curve, so a sample read from the wrong node
/// or link shows.  Site a: nodes 0, 1; site b: nodes 2, 3.
gridsim::Grid two_site_grid() {
  gridsim::GridBuilder b;
  const SiteId a = b.add_site("a", Seconds{1e-4}, BytesPerSecond{1e9});
  const SiteId s = b.add_site("b", Seconds{1e-4}, BytesPerSecond{5e8});
  b.set_inter_site_link(a, s, Seconds{0.01}, BytesPerSecond{4e6},
                        std::make_unique<gridsim::DiurnalLoad>(
                            1.0, 0.8, Seconds{7.0}));
  for (int i = 0; i < 4; ++i)
    b.add_node(i < 2 ? a : s, 100.0,
               std::make_unique<gridsim::DiurnalLoad>(
                   0.5 + 0.4 * i, 0.3, Seconds{5.0 + i}, Seconds{0.7 * i}));
  return b.build();
}

MonitorDaemon::Params params(double period = 1.0) {
  MonitorDaemon::Params p;
  p.period = Seconds{period};
  p.forecaster = "last_value";
  return p;
}

TEST(MonitorDaemon, SamplesOnPeriodGrid) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(2, 100.0);
  MonitorDaemon daemon(grid, grid.node_ids(), params(1.0));
  EXPECT_EQ(daemon.samples_taken(), 0u);
  daemon.advance_to(Seconds{0.5});
  EXPECT_EQ(daemon.samples_taken(), 0u);  // first sample due at t=1
  daemon.advance_to(Seconds{3.7});
  EXPECT_EQ(daemon.samples_taken(), 3u);  // t=1,2,3
  daemon.advance_to(Seconds{3.9});
  EXPECT_EQ(daemon.samples_taken(), 3u);
}

TEST(MonitorDaemon, StaleAdvanceIsIgnored) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  MonitorDaemon daemon(grid, grid.node_ids(), params(1.0));
  daemon.advance_to(Seconds{5.0});
  const std::size_t count = daemon.samples_taken();
  daemon.advance_to(Seconds{2.0});  // time never goes backwards
  EXPECT_EQ(daemon.samples_taken(), count);
}

TEST(MonitorDaemon, ObservesInjectedLoadStep) {
  gridsim::Grid grid = gridsim::make_uniform_grid(2, 100.0);
  gridsim::inject_load_step_on(grid, NodeId{1}, Seconds{5.0}, 3.0);
  MonitorDaemon daemon(grid, grid.node_ids(), params(1.0));
  daemon.advance_to(Seconds{4.0});
  EXPECT_DOUBLE_EQ(daemon.last_load(NodeId{1}), 0.0);
  daemon.advance_to(Seconds{6.0});
  EXPECT_DOUBLE_EQ(daemon.last_load(NodeId{1}), 3.0);
  EXPECT_DOUBLE_EQ(daemon.forecast_load(NodeId{1}), 3.0);  // last_value
  EXPECT_DOUBLE_EQ(daemon.last_load(NodeId{0}), 0.0);
}

TEST(MonitorDaemon, HistoryIsOldestFirstAndBounded) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  MonitorDaemon::Params p = params(1.0);
  p.history = 4;
  MonitorDaemon daemon(grid, grid.node_ids(), p);
  daemon.advance_to(Seconds{10.0});
  const auto history = daemon.load_history(NodeId{0});
  EXPECT_EQ(history.size(), 4u);
}

TEST(MonitorDaemon, BandwidthTracked) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(2, 100.0);
  MonitorDaemon daemon(grid, grid.node_ids(), params(1.0));
  daemon.advance_to(Seconds{2.0});
  // Same-site 1 GB/s default intra link.
  EXPECT_DOUBLE_EQ(daemon.last_bandwidth(NodeId{1}), 1e9);
  EXPECT_GT(daemon.last_bandwidth(NodeId{0}), 1e11);  // loopback vs root
}

TEST(MonitorDaemon, UnwatchedNodeThrows) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(2, 100.0);
  MonitorDaemon daemon(grid, {NodeId{0}}, params());
  EXPECT_THROW((void)daemon.last_load(NodeId{1}), std::out_of_range);
}

TEST(MonitorDaemon, RewatchPreservesExistingHistories) {
  gridsim::Grid grid = gridsim::make_uniform_grid(3, 100.0);
  gridsim::inject_load_step_on(grid, NodeId{0}, Seconds{0.0}, 2.0);
  MonitorDaemon daemon(grid, {NodeId{0}, NodeId{1}}, params(1.0));
  daemon.advance_to(Seconds{3.0});
  daemon.rewatch({NodeId{0}, NodeId{2}});
  // Node 0 history survived the rewatch.
  EXPECT_DOUBLE_EQ(daemon.last_load(NodeId{0}), 2.0);
  // Node 2 is fresh.
  EXPECT_DOUBLE_EQ(daemon.last_load(NodeId{2}), 0.0);
  // Node 1 dropped.
  EXPECT_THROW((void)daemon.last_load(NodeId{1}), std::out_of_range);
  daemon.advance_to(Seconds{5.0});
  EXPECT_EQ(daemon.watched().size(), 2u);
}

TEST(MonitorDaemon, RejectsNonPositivePeriod) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  MonitorDaemon::Params p = params(0.0);
  EXPECT_THROW(MonitorDaemon(grid, grid.node_ids(), p),
               std::invalid_argument);
}

TEST(MonitorDaemon, NoisySamplesStayNonNegative) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  MonitorDaemon::Params p = params(1.0);
  p.noise_relative = 0.3;
  p.noise_absolute = 0.2;
  MonitorDaemon daemon(grid, grid.node_ids(), p);
  daemon.advance_to(Seconds{50.0});
  for (const double v : daemon.load_history(NodeId{0})) EXPECT_GE(v, 0.0);
}

TEST(MonitorDaemon, NoisySamplesAreTheSensorsOwnInTickOrder) {
  // Per tick, per watched node, CPU first, then bandwidth: the daemon's
  // samples are exactly what the two sensors return when called directly
  // in that order with the daemon's noise seeds.
  const gridsim::Grid grid = two_site_grid();
  MonitorDaemon::Params p = params(1.0);
  p.root = NodeId{1};
  p.noise_relative = 0.2;
  p.noise_absolute = 0.05;
  p.noise_seed = 11;
  const std::vector<NodeId> watched = {NodeId{3}, NodeId{0}, NodeId{1},
                                       NodeId{2}};
  MonitorDaemon daemon(grid, watched, p);
  CpuLoadSensor cpu(grid, NoiseModel(0.2, 0.05, 11));
  BandwidthSensor bw(grid, NoiseModel(0.2, 0.05, 11 ^ 0x9e3779b9ULL));

  std::vector<std::vector<double>> loads(watched.size());
  for (int tick = 1; tick <= 30; ++tick) {
    const Seconds t{static_cast<double>(tick)};
    std::vector<double> want_bw;
    for (std::size_t i = 0; i < watched.size(); ++i) {
      loads[i].push_back(cpu.sample(watched[i], t).value);
      want_bw.push_back(bw.sample(p.root, watched[i], t).value);
    }
    // Ticks 1-20 one at a time, then 21-30 in one back-filling advance.
    if (tick > 20 && tick < 30) continue;
    daemon.advance_to(t);
    for (std::size_t i = 0; i < watched.size(); ++i) {
      SCOPED_TRACE(::testing::Message() << "tick " << tick << " node " << i);
      EXPECT_EQ(daemon.last_load(watched[i]), loads[i].back());
      EXPECT_EQ(daemon.last_bandwidth(watched[i]), want_bw[i]);
    }
  }
  for (std::size_t i = 0; i < watched.size(); ++i)
    EXPECT_EQ(daemon.load_history(watched[i]), loads[i]);
}

TEST(MonitorDaemon, RerootReadsTheNewRootsLinks) {
  const gridsim::Grid grid = two_site_grid();
  MonitorDaemon::Params p = params(1.0);
  p.root = NodeId{0};
  MonitorDaemon daemon(grid, grid.node_ids(), p);
  BandwidthSensor truth(grid, NoiseModel::none());
  daemon.advance_to(Seconds{3.0});
  EXPECT_EQ(daemon.last_bandwidth(NodeId{1}), 1e9);
  EXPECT_EQ(daemon.last_bandwidth(NodeId{2}),
            truth.sample(NodeId{0}, NodeId{2}, Seconds{3.0}).value);

  daemon.reroot(NodeId{3});  // failover moved the root to site b
  daemon.advance_to(Seconds{4.0});
  const Seconds t{4.0};
  EXPECT_EQ(daemon.last_bandwidth(NodeId{0}),
            truth.sample(NodeId{3}, NodeId{0}, t).value);
  EXPECT_EQ(daemon.last_bandwidth(NodeId{1}),
            truth.sample(NodeId{3}, NodeId{1}, t).value);
  EXPECT_LT(daemon.last_bandwidth(NodeId{0}), 4e6);  // the shared link
  EXPECT_EQ(daemon.last_bandwidth(NodeId{2}), 5e8);  // site b's own link
  EXPECT_EQ(daemon.last_bandwidth(NodeId{3}),
            BandwidthSensor::kLoopbackBandwidth);
}

TEST(MonitorDaemon, RewatchedNodeSamplesItsOwnModel) {
  const gridsim::Grid grid = two_site_grid();
  MonitorDaemon::Params p = params(1.0);
  p.root = NodeId{0};
  MonitorDaemon daemon(grid, {NodeId{0}, NodeId{1}}, p);
  daemon.advance_to(Seconds{2.0});
  daemon.rewatch({NodeId{1}, NodeId{3}});
  daemon.advance_to(Seconds{3.0});
  const Seconds t{3.0};
  EXPECT_EQ(daemon.last_load(NodeId{3}), grid.node(NodeId{3}).load_at(t));
  EXPECT_EQ(daemon.last_load(NodeId{1}), grid.node(NodeId{1}).load_at(t));
  EXPECT_NE(daemon.last_load(NodeId{3}), daemon.last_load(NodeId{1}));
  BandwidthSensor truth(grid, NoiseModel::none());
  EXPECT_EQ(daemon.last_bandwidth(NodeId{3}),
            truth.sample(NodeId{0}, NodeId{3}, t).value);
  EXPECT_EQ(daemon.last_bandwidth(NodeId{1}), 1e9);
}

TEST(MonitorDaemon, WatchedRootReadsLoopbackEvenWithNoise) {
  const gridsim::Grid grid = two_site_grid();
  MonitorDaemon::Params p = params(1.0);
  p.root = NodeId{2};
  p.noise_relative = 0.3;
  MonitorDaemon daemon(grid, grid.node_ids(), p);
  daemon.advance_to(Seconds{5.0});
  EXPECT_EQ(daemon.last_bandwidth(NodeId{2}), 1e12);
  EXPECT_EQ(daemon.mean_bandwidth_between(NodeId{2}, Seconds{0.0},
                                          Seconds{5.0}),
            1e12);
}

}  // namespace
}  // namespace grasp::perfmon
