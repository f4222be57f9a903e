#include "resil/elastic_pool.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace grasp::resil {
namespace {

ElasticPool::Params params() {
  ElasticPool::Params p;
  p.evict_ratio = 3.0;
  return p;
}

TEST(ElasticPool, AdmitsFitProbationerAndParksSlowOne) {
  ElasticPool pool(params());
  pool.reset({NodeId{0}, NodeId{1}});

  pool.begin_probation(NodeId{2});
  pool.begin_probation(NodeId{3});
  EXPECT_TRUE(pool.in_probation(NodeId{2}));
  EXPECT_FALSE(pool.contains(NodeId{2}));

  EXPECT_TRUE(pool.admit(NodeId{2}, 2.5, 1.0));   // 2.5 <= 3 x baseline
  EXPECT_FALSE(pool.admit(NodeId{3}, 3.5, 1.0));  // 3.5 > 3 x baseline
  EXPECT_TRUE(pool.contains(NodeId{2}));
  EXPECT_FALSE(pool.contains(NodeId{3}));
  EXPECT_FALSE(pool.in_probation(NodeId{2}));
  EXPECT_FALSE(pool.in_probation(NodeId{3}));
  EXPECT_EQ(pool.admissions(), 1u);
  EXPECT_EQ(pool.rejections(), 1u);
}

TEST(ElasticPool, EvictsAfterConsecutiveBadObservations) {
  ElasticPool pool(params());
  pool.reset({NodeId{0}, NodeId{1}, NodeId{2}});

  EXPECT_FALSE(pool.observe(NodeId{2}, 4.0, 1.0));  // strike 1
  EXPECT_FALSE(pool.observe(NodeId{2}, 4.0, 1.0));  // strike 2
  EXPECT_FALSE(pool.observe(NodeId{2}, 1.0, 1.0));  // healthy: reset
  EXPECT_FALSE(pool.observe(NodeId{2}, 4.0, 1.0));
  EXPECT_FALSE(pool.observe(NodeId{2}, 4.0, 1.0));
  EXPECT_TRUE(pool.observe(NodeId{2}, 4.0, 1.0));  // strike 3: evicted
  EXPECT_FALSE(pool.contains(NodeId{2}));
  EXPECT_EQ(pool.evictions(), 1u);
  // Observations for non-members are ignored.
  EXPECT_FALSE(pool.observe(NodeId{2}, 9.0, 1.0));
}

TEST(ElasticPool, EvictionRespectsMinWorkers) {
  ElasticPool pool(params());
  pool.reset({NodeId{0}});
  for (int i = 0; i < 10; ++i)
    EXPECT_FALSE(pool.observe(NodeId{0}, 100.0, 1.0));
  EXPECT_TRUE(pool.contains(NodeId{0}));  // last worker is never evicted
}

TEST(ElasticPool, RemoveCoversWorkersAndProbationers) {
  ElasticPool pool(params());
  pool.reset({NodeId{0}, NodeId{1}});
  pool.begin_probation(NodeId{2});
  EXPECT_TRUE(pool.remove(NodeId{0}));
  EXPECT_FALSE(pool.remove(NodeId{0}));  // already gone
  EXPECT_FALSE(pool.remove(NodeId{2}));  // probationer, not a worker
  EXPECT_FALSE(pool.in_probation(NodeId{2}));  // but probation ended
}

TEST(ElasticPool, ResetClearsProbationAndStrikes) {
  ElasticPool pool(params());
  pool.reset({NodeId{0}, NodeId{1}});
  pool.begin_probation(NodeId{5});
  (void)pool.observe(NodeId{1}, 9.0, 1.0);
  (void)pool.observe(NodeId{1}, 9.0, 1.0);
  pool.reset({NodeId{0}, NodeId{1}});
  EXPECT_FALSE(pool.in_probation(NodeId{5}));
  // Strikes were cleared: two more bad rounds are not enough to evict.
  EXPECT_FALSE(pool.observe(NodeId{1}, 9.0, 1.0));
  EXPECT_FALSE(pool.observe(NodeId{1}, 9.0, 1.0));
  EXPECT_TRUE(pool.contains(NodeId{1}));
}

TEST(ElasticPool, ValidationErrors) {
  ElasticPool::Params bad;
  bad.evict_ratio = -1.0;
  EXPECT_THROW(ElasticPool{bad}, std::invalid_argument);
}

TEST(ElasticPool, RejectsNonFiniteEvictRatio) {
  // NaN fails every strike comparison, so it used to turn eviction off
  // without a word; the infinities are no ratio either.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), -1.0}) {
    SCOPED_TRACE(bad);
    ElasticPool::Params p;
    p.evict_ratio = bad;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    EXPECT_THROW(ElasticPool{p}, std::invalid_argument);
  }
  ElasticPool::Params off;  // 0 (eviction off) stays legal
  EXPECT_NO_THROW(off.validate());
  EXPECT_NO_THROW(params().validate());
}

}  // namespace
}  // namespace grasp::resil
