#include "perfmon/monitor.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <tuple>

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

TEST(MonitorDaemon, TicksDoNotDependOnTheCallPattern) {
  // At p = 0.1, adding p tick after tick drifts off k * p (tick 8 would
  // sit at 0.7999999999999999), and by how much depends on how often the
  // engine calls in.  Tick k sits at k * p whatever the call pattern.
  const gridsim::Grid grid = two_site_grid();
  MonitorDaemon::Params p = params(0.1);
  p.root = NodeId{0};
  p.history = 32;
  MonitorDaemon coarse(grid, grid.node_ids(), p);
  MonitorDaemon fine(grid, grid.node_ids(), p);
  coarse.advance_to(Seconds{2.0});
  for (int i = 1; i < 200; ++i) fine.advance_to(Seconds{i * 0.01});
  fine.advance_to(Seconds{2.0});
  EXPECT_EQ(coarse.samples_taken(), 20u);
  EXPECT_EQ(fine.samples_taken(), 20u);
  BandwidthSensor truth(grid, NoiseModel::none());
  for (const NodeId n : grid.node_ids()) {
    EXPECT_EQ(fine.load_history(n), coarse.load_history(n));
    for (int k = 1; k <= 20; ++k) {
      SCOPED_TRACE(::testing::Message() << "node " << n.value << " tick " << k);
      const Seconds tick{k * 0.1};
      // A one-instant window holds a sample only when a tick sits there.
      const double load = grid.node(n).load_at(tick);
      const double bw = truth.sample(NodeId{0}, n, tick).value;
      EXPECT_EQ(coarse.mean_load_between(n, tick, tick), load);
      EXPECT_EQ(fine.mean_load_between(n, tick, tick), load);
      EXPECT_EQ(coarse.mean_bandwidth_between(n, tick, tick), bw);
      EXPECT_EQ(fine.mean_bandwidth_between(n, tick, tick), bw);
    }
  }
}

// ------------------------------------------------------------ SampleTable

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every getter of `shared` equals `own`'s bit for bit, for each of
/// `own`'s watched nodes.
void expect_same_view(const MonitorDaemon& shared, const MonitorDaemon& own,
                      const obs::MetricsRegistry& shared_metrics,
                      const obs::MetricsRegistry& own_metrics) {
  ASSERT_EQ(shared.watched(), own.watched());
  EXPECT_EQ(shared.samples_taken(), own.samples_taken());
  EXPECT_EQ(shared_metrics.snapshot().counters, own_metrics.snapshot().counters);
  const double p = own.period().value;
  for (const NodeId n : own.watched()) {
    SCOPED_TRACE(::testing::Message() << "node " << n.value);
    EXPECT_EQ(bits(shared.last_load(n)), bits(own.last_load(n)));
    EXPECT_EQ(bits(shared.forecast_load(n)), bits(own.forecast_load(n)));
    EXPECT_EQ(bits(shared.last_bandwidth(n)), bits(own.last_bandwidth(n)));
    EXPECT_EQ(bits(shared.forecast_bandwidth(n)),
              bits(own.forecast_bandwidth(n)));
    const std::vector<double> shared_history = shared.load_history(n);
    const std::vector<double> own_history = own.load_history(n);
    ASSERT_EQ(shared_history.size(), own_history.size());
    for (std::size_t i = 0; i < own_history.size(); ++i)
      EXPECT_EQ(bits(shared_history[i]), bits(own_history[i]));
    const double last = static_cast<double>(own.samples_taken()) * p;
    for (const auto& [from, to] :
         {std::pair{0.0, last}, std::pair{last - 3.0 * p, last},
          std::pair{last - 0.5 * p, last}, std::pair{last / 2.0, last / 2.0}}) {
      EXPECT_EQ(bits(shared.mean_load_between(n, Seconds{from}, Seconds{to})),
                bits(own.mean_load_between(n, Seconds{from}, Seconds{to})));
      EXPECT_EQ(
          bits(shared.mean_bandwidth_between(n, Seconds{from}, Seconds{to})),
          bits(own.mean_bandwidth_between(n, Seconds{from}, Seconds{to})));
    }
  }
}

/// A daemon served by a table and a private one, built alike.
struct DaemonPair {
  obs::MetricsRegistry shared_metrics;
  obs::MetricsRegistry own_metrics;
  MonitorDaemon shared;
  MonitorDaemon own;
  DaemonPair(const gridsim::Grid& grid, std::vector<NodeId> watched,
             MonitorDaemon::Params p, SampleTable& table)
      : shared(grid, watched, with_table(p, &table)),
        own(grid, std::move(watched), with_table(p, nullptr)) {
    shared.attach_metrics(&shared_metrics);
    own.attach_metrics(&own_metrics);
  }
  static MonitorDaemon::Params with_table(MonitorDaemon::Params p,
                                          SampleTable* table) {
    p.sample_table = table;
    return p;
  }
  void advance_to(Seconds t) {
    shared.advance_to(t);
    own.advance_to(t);
  }
  void expect_same() const {
    expect_same_view(shared, own, shared_metrics, own_metrics);
  }
};

class SampleTableExactness
    : public ::testing::TestWithParam<std::tuple<std::string, double>> {};

TEST_P(SampleTableExactness, ServedDaemonsMatchPrivateReplays) {
  const auto [forecaster, period] = GetParam();
  const gridsim::Grid grid = two_site_grid();
  MonitorDaemon::Params p;
  p.period = Seconds{period};
  p.forecaster = forecaster;
  p.history = 8;  // small, so the copied rings have wrapped
  p.root = NodeId{0};
  SampleTable table(grid, p);
  const std::vector<NodeId> all = grid.node_ids();

  struct Case {
    double first;  ///< time of the first advance_to
    std::vector<NodeId> watched;
    NodeId reroot;   ///< invalid: keep root 0
    std::vector<NodeId> rewatch;  ///< empty: keep the watched set
  };
  // First advances in time order (the table serves forward), with equal
  // times and one before the first tick.  Node 1 sits on root 0's site.
  const std::vector<Case> cases = {
      {0.5 * period, all, NodeId::invalid(), {}},
      {3.0 * period + 0.01, {NodeId{1}, NodeId{3}}, NodeId::invalid(), {}},
      {3.0 * period + 0.01, all, NodeId{2}, {}},
      {7.3, {NodeId{0}, NodeId{1}}, NodeId::invalid(),
       {NodeId{2}, NodeId{1}, NodeId{0}}},
      {7.3, all, NodeId{3}, {NodeId{3}, NodeId{2}}},
      {25.0, all, NodeId::invalid(), {}},
  };
  std::vector<std::unique_ptr<DaemonPair>> pairs;
  for (const Case& c : cases) {
    SCOPED_TRACE(::testing::Message() << "first advance at " << c.first);
    auto pair = std::make_unique<DaemonPair>(grid, c.watched, p, table);
    if (c.reroot.is_valid()) {
      pair->shared.reroot(c.reroot);
      pair->own.reroot(c.reroot);
    }
    if (!c.rewatch.empty()) {
      pair->shared.rewatch(c.rewatch);
      pair->own.rewatch(c.rewatch);
    }
    pair->expect_same();  // reads before the first advance: empty state
    EXPECT_EQ(pair->shared.last_load(pair->shared.watched().front()), 0.0);
    pair->advance_to(Seconds{c.first});
    pair->expect_same();
    pairs.push_back(std::move(pair));
  }
  EXPECT_GT(table.samples_folded(), 0u);
  // Later ticks are each daemon's own, and stay equal.
  for (const auto& pair : pairs) {
    pair->advance_to(Seconds{31.7});
    pair->expect_same();
    pair->shared.reroot(NodeId{1});
    pair->own.reroot(NodeId{1});
    pair->advance_to(Seconds{40.0});
    pair->expect_same();
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllForecasters, SampleTableExactness,
    // std::string, not const char*: a pointer inside a tuple prints its
    // address, which would put a per-run value in every test name.
    ::testing::Combine(::testing::Values(std::string{"last_value"},
                                         std::string{"running_mean"},
                                         std::string{"sliding_median"},
                                         std::string{"ewma"},
                                         std::string{"ar1"},
                                         std::string{"meta"}),
                       ::testing::Values(1.0, 0.1)));

TEST(SampleTable, FoldsEachSourceTickOnce) {
  const gridsim::Grid grid = two_site_grid();
  MonitorDaemon::Params p = params(1.0);
  p.root = NodeId{0};
  SampleTable table(grid, p);
  p.sample_table = &table;
  // Sources seen from root 0: four node loads, plus the loopback (node 0),
  // site a's link (node 1) and the inter-site link (nodes 2 and 3).
  constexpr std::size_t kSources = 4 + 3;
  MonitorDaemon first(grid, grid.node_ids(), p);
  first.advance_to(Seconds{10.5});
  EXPECT_EQ(table.samples_folded(), 10 * kSources);
  MonitorDaemon second(grid, grid.node_ids(), p);
  second.advance_to(Seconds{10.0});
  EXPECT_EQ(table.samples_folded(), 10 * kSources);
  MonitorDaemon third(grid, {NodeId{2}, NodeId{3}}, p);
  third.advance_to(Seconds{14.0});
  // Only nodes 2 and 3's loads and the inter-site link move on.
  EXPECT_EQ(table.samples_folded(), 10 * kSources + 4 * 3);
  // A served daemon's later ticks are its own, not the table's.
  first.advance_to(Seconds{20.0});
  EXPECT_EQ(table.samples_folded(), 10 * kSources + 4 * 3);
  EXPECT_EQ(first.samples_taken(), 20u);
}

TEST(SampleTable, NoisyOrMismatchedDaemonsBypassIt) {
  const gridsim::Grid grid = two_site_grid();
  const gridsim::Grid other = two_site_grid();
  MonitorDaemon::Params p = params(1.0);
  p.root = NodeId{0};
  SampleTable table(grid, p);
  EXPECT_TRUE(table.matches(grid, p));
  std::vector<MonitorDaemon::Params> bypass(6, p);
  bypass[0].noise_relative = 0.2;
  bypass[1].noise_absolute = 0.05;
  bypass[2].period = Seconds{0.5};
  bypass[3].forecaster = "ewma";
  bypass[4].history = 63;
  for (std::size_t i = 0; i < bypass.size(); ++i) {
    SCOPED_TRACE(::testing::Message() << "case " << i);
    const gridsim::Grid& g = i == 5 ? other : grid;  // 5: another grid
    EXPECT_FALSE(table.matches(g, bypass[i]));
    MonitorDaemon::Params served = bypass[i];
    served.sample_table = &table;
    obs::MetricsRegistry served_metrics;
    obs::MetricsRegistry own_metrics;
    MonitorDaemon shared(g, g.node_ids(), served);
    MonitorDaemon own(g, g.node_ids(), bypass[i]);
    shared.attach_metrics(&served_metrics);
    own.attach_metrics(&own_metrics);
    shared.advance_to(Seconds{12.0});
    own.advance_to(Seconds{12.0});
    EXPECT_EQ(table.samples_folded(), 0u);
    expect_same_view(shared, own, served_metrics, own_metrics);
  }
}

TEST(SampleTable, ADaemonBehindTheTableReplaysItself) {
  // The table's streams only move forward: a daemon whose first ticks lie
  // behind what the table already served takes them itself.
  const gridsim::Grid grid = two_site_grid();
  MonitorDaemon::Params p = params(1.0);
  p.forecaster = "ar1";
  p.root = NodeId{0};
  SampleTable table(grid, p);
  DaemonPair ahead(grid, grid.node_ids(), p, table);
  ahead.advance_to(Seconds{20.0});
  const std::size_t folded = table.samples_folded();
  DaemonPair behind(grid, grid.node_ids(), p, table);
  behind.advance_to(Seconds{12.0});
  EXPECT_EQ(table.samples_folded(), folded);
  behind.expect_same();
  behind.advance_to(Seconds{30.0});
  behind.expect_same();
}

}  // namespace
}  // namespace grasp::perfmon
