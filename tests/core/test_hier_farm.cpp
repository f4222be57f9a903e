// Hierarchical farm-of-farms: partitioning, conservation, adaptivity and
// the property the whole design exists for — a root event-loop load that
// does not grow with the worker count.
#include "core/hier_farm.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/backend_sim.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/telemetry.hpp"
#include "workloads/generators.hpp"

namespace grasp::core {
namespace {

workloads::TaskSet gen_tasks(std::size_t n, double mean_mops,
                             std::uint64_t seed) {
  workloads::TaskSetParams p;
  p.count = n;
  p.mean_mops = mean_mops;
  p.cv = 0.6;
  p.seed = seed;
  return workloads::make_task_set(p);
}

/// node 0 is the root; workers cycle through heterogeneous speeds.
gridsim::Grid hetero_grid(std::size_t workers) {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  b.add_node(s, 100.0);  // root
  const double speeds[] = {50.0, 100.0, 200.0, 400.0};
  for (std::size_t i = 0; i < workers; ++i)
    b.add_node(s, speeds[i % 4]);
  return b.build();
}

/// Every TaskCompleted id exactly once, and all of them.
void expect_exactly_once(const HierFarmReport& report, std::size_t total) {
  std::map<std::uint64_t, int> seen;
  for (const auto& ev : report.trace.events())
    if (ev.kind == gridsim::TraceEventKind::TaskCompleted)
      ++seen[ev.task.value];
  EXPECT_EQ(seen.size(), total);
  for (const auto& [id, n] : seen)
    EXPECT_EQ(n, 1) << "task " << id << " completed " << n << " times";
}

TEST(HierFarm, ShardCountClampsBetweenOneAndTheFanoutCeiling) {
  EXPECT_EQ(shard_count_for(15, 8, 16), 2u);
  EXPECT_EQ(shard_count_for(16, 8, 16), 2u);
  EXPECT_EQ(shard_count_for(255, 8, 16), 16u);
  EXPECT_EQ(shard_count_for(4096, 8, 16), 16u);  // shards grow instead
  EXPECT_EQ(shard_count_for(3, 8, 16), 1u);
  EXPECT_EQ(shard_count_for(0, 8, 16), 0u);
}

TEST(HierFarm, PlanShardsBalancesCapacityDeterministically) {
  // LPT over speeds 400,200,100,50 x2: every shard's aggregate speed must
  // land within a task-grain of the others, and the fastest node of each
  // shard comes first (it will be the sub-farmer).
  std::vector<NodeId> workers;
  std::vector<double> speeds;
  const double table[] = {400, 200, 100, 50, 400, 200, 100, 50};
  for (std::size_t i = 0; i < 8; ++i) {
    workers.push_back(NodeId{i + 1});
    speeds.push_back(table[i]);
  }
  const auto plan = plan_shards(workers, speeds, 2);
  ASSERT_EQ(plan.size(), 2u);
  double load[2] = {0, 0};
  for (std::size_t k = 0; k < 2; ++k) {
    double best = 0.0;
    for (NodeId n : plan[k]) {
      const double s = table[n.value - 1];
      load[k] += s;
      best = std::max(best, s);
    }
    // The first member is the shard's fastest — the initial sub-farmer.
    EXPECT_DOUBLE_EQ(table[plan[k].front().value - 1], best);
  }
  EXPECT_DOUBLE_EQ(load[0], load[1]);
  // Determinism: a second plan is identical.
  EXPECT_EQ(plan_shards(workers, speeds, 2), plan);
}

TEST(HierFarm, TopologyHelpersDescribeAnArityKHeap) {
  // Binary tree over 7 positions: 0 -> {1,2}, 1 -> {3,4}, 2 -> {5,6}.
  EXPECT_EQ(tree_parent(1, 2), 0u);
  EXPECT_EQ(tree_parent(2, 2), 0u);
  EXPECT_EQ(tree_parent(6, 2), 2u);
  EXPECT_EQ(tree_child_count(0, 7, 2), 2u);
  EXPECT_EQ(tree_child_count(1, 7, 2), 2u);
  EXPECT_EQ(tree_child_count(3, 7, 2), 0u);
  // Partial last level.
  EXPECT_EQ(tree_child_count(2, 6, 2), 1u);
  // Arity 4 flattens the tree.
  EXPECT_EQ(tree_child_count(0, 5, 4), 4u);
  EXPECT_EQ(tree_child_count(0, 1, 4), 0u);
  // Every position but 0 is counted exactly once, by its own parent.
  for (std::size_t arity = 1; arity <= 5; ++arity)
    for (std::size_t size = 1; size <= 40; ++size) {
      std::vector<std::size_t> reported(size, 0);
      for (std::size_t pos = 1; pos < size; ++pos)
        ++reported[tree_parent(pos, arity)];
      for (std::size_t pos = 0; pos < size; ++pos)
        ASSERT_EQ(tree_child_count(pos, size, arity), reported[pos])
            << "pos " << pos << " size " << size << " arity " << arity;
    }
}

TEST(HierFarm, ConservesTasksAcrossShards) {
  const gridsim::Grid grid = hetero_grid(16);
  SimBackend backend(grid);
  HierFarmParams p;
  p.workers_per_shard = 4;  // 4 shards of 4
  obs::Telemetry tel;  // detail tier: expect_exactly_once reads records
  p.telemetry = &tel;
  const workloads::TaskSet ts = gen_tasks(96, 1000.0, 7);
  HierFarm farm(p);
  const HierFarmReport r = farm.run(backend, grid, grid.node_ids(), ts);

  EXPECT_EQ(r.tasks_completed + r.calibration_tasks, 96u);
  EXPECT_GT(r.calibration_tasks, 0u);  // one probe per worker
  EXPECT_EQ(r.shards, 4u);
  expect_exactly_once(r, 96);
  // Every shard pulled work and completed some of it.
  std::size_t sum = 0;
  for (const auto& s : r.shard_summaries) {
    EXPECT_GT(s.grants, 0u);
    sum += s.tasks_completed;
  }
  EXPECT_EQ(sum, 96u);
}

TEST(HierFarm, StaticModeRunsWithoutProbesOrRounds) {
  const gridsim::Grid grid = hetero_grid(16);
  SimBackend backend(grid);
  HierFarmParams p;
  p.mode = HierMode::Static;
  p.workers_per_shard = 4;
  obs::Telemetry tel;  // detail tier: expect_exactly_once reads records
  p.telemetry = &tel;
  const workloads::TaskSet ts = gen_tasks(96, 1000.0, 7);
  const HierFarmReport r = HierFarm(p).run(backend, grid, grid.node_ids(), ts);
  EXPECT_EQ(r.tasks_completed, 96u);
  EXPECT_EQ(r.calibration_tasks, 0u);
  EXPECT_EQ(r.monitor_rounds, 0u);
  expect_exactly_once(r, 96);
}

TEST(HierFarm, GraspBeatsStaticOnAHeterogeneousGrid) {
  // 8x speed spread between the slowest and fastest workers: static's
  // uniform chunks strand the tail on the slow nodes, Grasp sizes chunks
  // by measured speed.
  const gridsim::Grid grid = hetero_grid(32);
  const workloads::TaskSet ts = gen_tasks(256, 2000.0, 11);
  HierFarmParams grasp;
  grasp.workers_per_shard = 8;
  HierFarmParams fixed = grasp;
  fixed.mode = HierMode::Static;
  fixed.chunk_size = 8;

  SimBackend b1(grid);
  const HierFarmReport g = HierFarm(grasp).run(b1, grid, grid.node_ids(), ts);
  SimBackend b2(grid);
  const HierFarmReport s = HierFarm(fixed).run(b2, grid, grid.node_ids(), ts);

  EXPECT_EQ(g.tasks_completed + g.calibration_tasks, 256u);
  EXPECT_EQ(s.tasks_completed, 256u);
  EXPECT_LE(g.makespan.value, s.makespan.value);
}

TEST(HierFarm, RootEventLoadStaysFlatAsWorkersGrow) {
  // The headline property: 16x the workers (and 16x the tasks) must not
  // move the root's events-per-virtual-second by more than 2x — the same
  // gate the e15 bench enforces.  Flat-farmer load would grow ~16x here.
  const auto run_scale = [](std::size_t workers) {
    gridsim::GridBuilder b;
    const SiteId s = b.add_site("a");
    b.add_node(s, 100.0);  // root
    for (std::size_t i = 0; i < workers; ++i) b.add_node(s, 100.0);
    const gridsim::Grid grid = b.build();
    SimBackend backend(grid);
    HierFarmParams p;
    const workloads::TaskSet ts = gen_tasks(4 * workers, 2000.0, 3);
    const HierFarmReport r =
        HierFarm(p).run(backend, grid, grid.node_ids(), ts);
    EXPECT_EQ(r.tasks_completed + r.calibration_tasks, 4 * workers);
    return r;
  };
  const HierFarmReport small = run_scale(16);
  const HierFarmReport big = run_scale(256);
  ASSERT_GT(small.root_events_per_vsec(), 0.0);
  const double ratio = big.root_events_per_vsec() / small.root_events_per_vsec();
  EXPECT_LE(ratio, 2.0) << "root load grew with the worker count";
  EXPECT_GE(ratio, 0.5);
  // Meanwhile the shard tier really did absorb the extra scale.
  EXPECT_GT(big.shard_events, small.shard_events);
}

TEST(HierFarm, MonitorRoundsAggregateThroughTheTreeNotTheRoot) {
  const gridsim::Grid grid = hetero_grid(64);
  SimBackend backend(grid);
  HierFarmParams p;
  p.workers_per_shard = 8;  // 8 shards
  p.monitor_period = Seconds{5.0};
  const workloads::TaskSet ts = gen_tasks(512, 2000.0, 5);
  const HierFarmReport r = HierFarm(p).run(backend, grid, grid.node_ids(), ts);
  ASSERT_GT(r.monitor_rounds, 0u);
  // Each full round costs one hop per tree position (the group-minus-one
  // interior edges plus the final hop into the root).
  EXPECT_GE(r.reduction_messages, r.monitor_rounds * 2);
  EXPECT_EQ(r.tasks_completed + r.calibration_tasks, 512u);
}

TEST(HierFarm, ShardTelemetryLandsUnderPrefixes) {
  const gridsim::Grid grid = hetero_grid(8);
  SimBackend backend(grid);
  obs::Telemetry tel(true);
  HierFarmParams p;
  p.workers_per_shard = 4;
  p.telemetry = &tel;
  const workloads::TaskSet ts = gen_tasks(64, 500.0, 9);
  const HierFarmReport r = HierFarm(p).run(backend, grid, grid.node_ids(), ts);
  ASSERT_EQ(r.shards, 2u);

  const obs::MetricsSnapshot snap = tel.metrics.snapshot();
  std::map<std::string, std::uint64_t> counters(snap.counters.begin(),
                                                snap.counters.end());
  EXPECT_EQ(counters.at("hier.root_events"), r.root_events);
  ASSERT_TRUE(counters.count("shard.0.tasks_completed"));
  ASSERT_TRUE(counters.count("shard.1.tasks_completed"));
  EXPECT_EQ(counters.at("shard.0.tasks_completed") +
                counters.at("shard.1.tasks_completed"),
            64u);
  // Each shard's chunk spans were grafted as a subtree.
  std::size_t shard_roots = 0, chunk_spans = 0;
  for (const auto& rec : tel.spans.records()) {
    if (std::string(rec.name) == "shard" && rec.parent == 0) ++shard_roots;
    if (std::string(rec.name) == "chunk" || std::string(rec.name) == "probe")
      ++chunk_spans;
  }
  EXPECT_EQ(shard_roots, 2u);
  EXPECT_GT(chunk_spans, 0u);
}

TEST(HierFarm, RejectsDegeneratePools) {
  const gridsim::Grid grid = hetero_grid(4);
  SimBackend backend(grid);
  const workloads::TaskSet ts = gen_tasks(8, 100.0, 1);
  EXPECT_THROW((void)HierFarm(HierFarmParams{})
                   .run(backend, grid, {NodeId{0}}, ts),
               std::runtime_error);
  EXPECT_THROW((void)HierFarm(HierFarmParams{}).run(backend, grid, {}, ts),
               std::runtime_error);
}

TEST(HierFarm, RejectsBadParamsAtConstruction) {
  const auto rejects = [](auto mutate) {
    HierFarmParams p;
    mutate(p);
    EXPECT_THROW(HierFarm{p}, std::invalid_argument);
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  rejects([](HierFarmParams& p) { p.workers_per_shard = 0; });
  rejects([](HierFarmParams& p) { p.chunk_size = 0; });
  rejects([](HierFarmParams& p) { p.target_chunk_seconds = -1.0; });
  rejects([&](HierFarmParams& p) { p.target_chunk_seconds = nan; });
  rejects([](HierFarmParams& p) { p.monitor_period = Seconds{-8.0}; });
  rejects([&](HierFarmParams& p) { p.monitor_period = Seconds{inf}; });
  rejects([](HierFarmParams& p) { p.promotion_handshake = Seconds{-1.0}; });
  rejects([&](HierFarmParams& p) { p.promotion_handshake = Seconds{nan}; });
  // The detector is built from these params on every run; a NaN period
  // would reach its floor-to-integer cast and the liveness timer.
  for (const double bad : {nan, inf, 0.0, -1.0}) {
    SCOPED_TRACE(bad);
    rejects([&](HierFarmParams& p) {
      p.detector.heartbeat_period = Seconds{bad};
    });
    rejects([&](HierFarmParams& p) { p.detector.timeout = Seconds{bad}; });
  }
  // monitor_period 0 still means "monitor off".
  HierFarmParams off;
  off.monitor_period = Seconds{0.0};
  EXPECT_NO_THROW(HierFarm{off});
}

TEST(HierFarm, ValidateChecksEveryParamDirectly) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NO_THROW(HierFarmParams{}.validate());
  const auto verdict = [](auto mutate) {
    HierFarmParams p;
    mutate(p);
    try {
      p.validate();
    } catch (const std::invalid_argument&) {
      return false;
    }
    return true;
  };
  // Counts: zero is the only invalid value.
  EXPECT_FALSE(verdict([](HierFarmParams& p) { p.workers_per_shard = 0; }));
  EXPECT_FALSE(verdict([](HierFarmParams& p) { p.chunk_size = 0; }));
  EXPECT_TRUE(verdict([](HierFarmParams& p) { p.workers_per_shard = 1; }));
  EXPECT_TRUE(verdict([](HierFarmParams& p) { p.chunk_size = 1; }));
  for (const double bad : {nan, inf, -inf, -1.0}) {
    SCOPED_TRACE(bad);
    // Finite and non-negative: zero is accepted (monitor off, no
    // handshake pause, one task per Grasp chunk).
    EXPECT_FALSE(
        verdict([&](HierFarmParams& p) { p.target_chunk_seconds = bad; }));
    EXPECT_FALSE(
        verdict([&](HierFarmParams& p) { p.monitor_period = Seconds{bad}; }));
    EXPECT_FALSE(verdict(
        [&](HierFarmParams& p) { p.promotion_handshake = Seconds{bad}; }));
  }
  EXPECT_TRUE(
      verdict([](HierFarmParams& p) { p.target_chunk_seconds = 0.0; }));
  EXPECT_TRUE(
      verdict([](HierFarmParams& p) { p.monitor_period = Seconds{0.0}; }));
  EXPECT_TRUE(verdict(
      [](HierFarmParams& p) { p.promotion_handshake = Seconds{0.0}; }));
  // Finite and positive: zero is rejected too.
  for (const double bad : {nan, inf, -inf, 0.0, -1.0}) {
    SCOPED_TRACE(bad);
    EXPECT_FALSE(verdict([&](HierFarmParams& p) {
      p.detector.heartbeat_period = Seconds{bad};
    }));
    EXPECT_FALSE(
        verdict([&](HierFarmParams& p) { p.detector.timeout = Seconds{bad}; }));
  }
}

}  // namespace
}  // namespace grasp::core
