#include "svc/calibration_cache.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "core/task_farm.hpp"
#include "gridsim/scenarios.hpp"
#include "svc/grid_service.hpp"
#include "workloads/generators.hpp"

namespace grasp::svc {
namespace {

workloads::TaskSet tasks(std::size_t n, std::uint64_t seed = 42) {
  workloads::TaskSetParams p;
  p.count = n;
  p.mean_mops = 100.0;
  p.cv = 0.6;
  p.seed = seed;
  return workloads::make_task_set(p);
}

// What GridService's admission gate keys on: a version that every store,
// removal and clear bumps, and the stamp of the oldest fresh entry, whose
// expiry is the first lookup answer to change between two bumps.
TEST(SvcCalibrationCache, VersionAndOldestFreshEntry) {
  CalibrationCache::Params p;
  p.max_age = Seconds{100.0};
  CalibrationCache cache(p);
  const double never = std::numeric_limits<double>::infinity();
  EXPECT_EQ(cache.version(), 0u);
  EXPECT_EQ(cache.oldest_fresh(Seconds{0.0}).value, never);
  EXPECT_FALSE(cache.expired(Seconds{never}, Seconds{1e12}));

  cache.store(NodeId{1}, 0.02, Seconds{10.0});
  cache.store(NodeId{2}, 0.03, Seconds{40.0});
  EXPECT_EQ(cache.version(), 2u);
  (void)cache.lookup(NodeId{1}, Seconds{50.0});
  EXPECT_EQ(cache.version(), 2u) << "a lookup changes nothing";
  EXPECT_EQ(cache.oldest_fresh(Seconds{50.0}).value, 10.0);
  // Node 1's entry reads fresh at 110 s (age 100) and stale after it.
  EXPECT_FALSE(cache.expired(Seconds{10.0}, Seconds{110.0}));
  EXPECT_TRUE(cache.lookup(NodeId{1}, Seconds{110.0}).has_value());
  EXPECT_TRUE(cache.expired(Seconds{10.0}, Seconds{110.5}));
  EXPECT_FALSE(cache.lookup(NodeId{1}, Seconds{110.5}).has_value());
  EXPECT_EQ(cache.oldest_fresh(Seconds{110.5}).value, 40.0);
  EXPECT_EQ(cache.oldest_fresh(Seconds{200.0}).value, never);

  EXPECT_FALSE(cache.invalidate(NodeId{7}));
  EXPECT_EQ(cache.version(), 2u) << "a no-op removal is no change";
  EXPECT_TRUE(cache.invalidate(NodeId{2}));
  EXPECT_EQ(cache.version(), 3u);
  cache.clear();
  EXPECT_EQ(cache.version(), 4u);
}

TEST(SvcCalibrationCache, StoreThenLookupWithinMaxAge) {
  CalibrationCache::Params p;
  p.max_age = Seconds{100.0};
  CalibrationCache cache(p);
  EXPECT_FALSE(cache.lookup(NodeId{3}, Seconds{0.0}).has_value());
  cache.store(NodeId{3}, 0.02, Seconds{10.0});
  const auto fresh = cache.lookup(NodeId{3}, Seconds{50.0});
  ASSERT_TRUE(fresh.has_value());
  EXPECT_DOUBLE_EQ(*fresh, 0.02);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stores(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(SvcCalibrationCache, EntriesExpireAfterMaxAge) {
  CalibrationCache::Params p;
  p.max_age = Seconds{100.0};
  CalibrationCache cache(p);
  cache.store(NodeId{1}, 0.01, Seconds{0.0});
  EXPECT_TRUE(cache.lookup(NodeId{1}, Seconds{100.0}).has_value());
  EXPECT_FALSE(cache.lookup(NodeId{1}, Seconds{100.1}).has_value());
  // A re-store refreshes the stamp.
  cache.store(NodeId{1}, 0.015, Seconds{150.0});
  const auto refreshed = cache.lookup(NodeId{1}, Seconds{200.0});
  ASSERT_TRUE(refreshed.has_value());
  EXPECT_DOUBLE_EQ(*refreshed, 0.015);
}

TEST(SvcCalibrationCache, RejectsNaNMaxAge) {
  // Unchecked, NaN never expires: an entry stored at t = 0 hit at t = 1e9.
  CalibrationCache::Params p;
  p.max_age = Seconds{std::nan("")};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  EXPECT_THROW(CalibrationCache{p}, std::invalid_argument);
}

TEST(SvcCalibrationCache, RejectsNegativeMaxAge) {
  // Unchecked, a negative age misses even at the instant of the store.
  CalibrationCache::Params p;
  p.max_age = Seconds{-1.0};
  EXPECT_THROW(p.validate(), std::invalid_argument);
  EXPECT_THROW(CalibrationCache{p}, std::invalid_argument);
}

TEST(SvcCalibrationCache, ZeroAndInfiniteMaxAgeStayLegal) {
  CalibrationCache::Params p;
  p.max_age = Seconds{0.0};
  CalibrationCache same_instant(p);
  same_instant.store(NodeId{1}, 0.01, Seconds{5.0});
  EXPECT_TRUE(same_instant.lookup(NodeId{1}, Seconds{5.0}).has_value());
  EXPECT_FALSE(same_instant.lookup(NodeId{1}, Seconds{5.5}).has_value());
  p.max_age = Seconds{std::numeric_limits<double>::infinity()};
  CalibrationCache forever(p);
  forever.store(NodeId{1}, 0.01, Seconds{0.0});
  EXPECT_TRUE(forever.lookup(NodeId{1}, Seconds{1e9}).has_value());
}

TEST(SvcCalibrationCache, LatestStoreWins) {
  CalibrationCache cache;
  cache.store(NodeId{0}, 0.02, Seconds{0.0});
  cache.store(NodeId{0}, 0.04, Seconds{5.0});
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_DOUBLE_EQ(*cache.lookup(NodeId{0}, Seconds{6.0}), 0.04);
}

TEST(SvcCalibrationCache, InvalidateDropsOnlyTheNamedNode) {
  CalibrationCache cache;
  cache.store(NodeId{1}, 0.01, Seconds{0.0});
  cache.store(NodeId{2}, 0.02, Seconds{0.0});
  EXPECT_TRUE(cache.invalidate(NodeId{1}));
  EXPECT_FALSE(cache.invalidate(NodeId{1}));  // idempotent, counts once
  EXPECT_FALSE(cache.invalidate(NodeId{9}));  // never stored
  EXPECT_EQ(cache.invalidations(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_FALSE(cache.lookup(NodeId{1}, Seconds{1.0}).has_value());
  EXPECT_TRUE(cache.lookup(NodeId{2}, Seconds{1.0}).has_value());
  // A fresh measurement resurrects the node.
  cache.store(NodeId{1}, 0.03, Seconds{5.0});
  EXPECT_DOUBLE_EQ(*cache.lookup(NodeId{1}, Seconds{6.0}), 0.03);
}

TEST(SvcCalibrationCache, WarmStartSkipsProbesForTheSecondTenant) {
  // Two identical jobs through one service: the first job's Algorithm-1
  // samples land in the pool-wide cache, so the second job's calibration
  // warm-starts from them and consumes no probe tasks at all.
  const gridsim::Grid grid = gridsim::make_uniform_grid(6, 100.0);
  core::SimBackend backend(grid);
  GridService service(backend, grid, grid.node_ids());

  const JobHandle first =
      service.submit(FarmJob{core::make_adaptive_farm_params(), tasks(160, 1)});
  service.wait(first);
  EXPECT_GT(service.calibration_cache().stores(), 0u);
  EXPECT_GT(first.farm_report().calibration_tasks, 0u);

  const JobHandle second =
      service.submit(FarmJob{core::make_adaptive_farm_params(), tasks(160, 2)});
  service.wait(second);

  EXPECT_EQ(second.farm_report().calibration_tasks, 0u);
  EXPECT_LT(second.farm_report().calibration_tasks,
            first.farm_report().calibration_tasks);
  // Conservation holds for both tenants regardless of the warm start.
  EXPECT_EQ(first.farm_report().tasks_completed +
                first.farm_report().calibration_tasks,
            160u);
  EXPECT_EQ(second.farm_report().tasks_completed +
                second.farm_report().calibration_tasks,
            160u);
}

TEST(SvcCalibrationCache, CacheOffReproducesStandaloneCalibration) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(6, 100.0);
  const auto run_once = [&](bool use_cache) {
    core::SimBackend backend(grid);
    GridService::Params sp;
    sp.use_calibration_cache = use_cache;
    GridService service(backend, grid, grid.node_ids(), sp);
    const JobHandle a = service.submit(
        FarmJob{core::make_adaptive_farm_params(), tasks(160, 1)});
    service.wait(a);
    const JobHandle b = service.submit(
        FarmJob{core::make_adaptive_farm_params(), tasks(160, 2)});
    service.wait(b);
    return b.farm_report().calibration_tasks;
  };
  EXPECT_GT(run_once(false), 0u);
  EXPECT_EQ(run_once(true), 0u);
}

}  // namespace
}  // namespace grasp::svc
