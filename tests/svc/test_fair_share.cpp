#include "svc/fair_share.hpp"

#include <gtest/gtest.h>

namespace grasp::svc {
namespace {

std::vector<NodeCapacity> uniform_free(std::size_t n, double mops) {
  std::vector<NodeCapacity> free_nodes;
  for (std::size_t i = 0; i < n; ++i)
    free_nodes.push_back({NodeId{i}, mops});
  return free_nodes;
}

TEST(SvcFairShare, LoneJobTakesTheWholePool) {
  const auto free_nodes = uniform_free(8, 100.0);
  const auto alloc =
      pick_allocation(free_nodes, 800.0, 0.0, ShareRequest{1.0, 1, 1.0});
  ASSERT_EQ(alloc.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_EQ(alloc[i], NodeId{i});
}

TEST(SvcFairShare, MaxShareReservesHeadroom) {
  const auto free_nodes = uniform_free(8, 100.0);
  const auto alloc =
      pick_allocation(free_nodes, 800.0, 0.0, ShareRequest{1.0, 1, 0.5});
  EXPECT_EQ(alloc.size(), 4u);
}

TEST(SvcFairShare, EqualWeightsSplitCapacity) {
  // One running job of weight 1 already holds half the pool; the arriving
  // equal-weight job targets 1/2 of total but only the free half exists.
  const auto free_nodes = uniform_free(4, 100.0);
  const auto alloc =
      pick_allocation(free_nodes, 800.0, 1.0, ShareRequest{1.0, 1, 1.0});
  EXPECT_EQ(alloc.size(), 4u);
  // A lighter job (weight 1 vs 3 running) targets 1/4 of 800 = 200 mops.
  const auto light =
      pick_allocation(free_nodes, 800.0, 3.0, ShareRequest{1.0, 1, 1.0});
  EXPECT_EQ(light.size(), 2u);
}

TEST(SvcFairShare, CapacityNotCountIsTheCurrency) {
  // One 400-mops node covers a 50% share of (400 + 4x100) on its own.
  std::vector<NodeCapacity> free_nodes = uniform_free(4, 100.0);
  free_nodes.push_back({NodeId{4}, 400.0});
  const auto alloc =
      pick_allocation(free_nodes, 800.0, 0.0, ShareRequest{1.0, 1, 0.5});
  ASSERT_EQ(alloc.size(), 1u);
  EXPECT_EQ(alloc[0], NodeId{4});
}

TEST(SvcFairShare, PreservesInputOrder) {
  // Fastest nodes live at the back; the allocation must still come out in
  // input order (engines are pool-order sensitive).
  std::vector<NodeCapacity> free_nodes;
  for (std::size_t i = 0; i < 6; ++i)
    free_nodes.push_back({NodeId{i}, 50.0 + 50.0 * static_cast<double>(i)});
  const double total = 50 + 100 + 150 + 200 + 250 + 300;
  const auto alloc =
      pick_allocation(free_nodes, total, 0.0, ShareRequest{1.0, 1, 0.5});
  ASSERT_GE(alloc.size(), 2u);
  for (std::size_t i = 1; i < alloc.size(); ++i)
    EXPECT_LT(alloc[i - 1].value, alloc[i].value);
  // The fastest node must be among the chosen.
  EXPECT_EQ(alloc.back(), NodeId{5});
}

TEST(SvcFairShare, MinNodesFloorBeatsTheShareTarget) {
  const auto free_nodes = uniform_free(8, 100.0);
  const auto alloc =
      pick_allocation(free_nodes, 800.0, 0.0, ShareRequest{1.0, 4, 0.125});
  EXPECT_EQ(alloc.size(), 4u);
}

TEST(SvcFairShare, TooFewFreeNodesMeansNoAllocation) {
  const auto free_nodes = uniform_free(2, 100.0);
  const auto alloc =
      pick_allocation(free_nodes, 800.0, 1.0, ShareRequest{1.0, 3, 1.0});
  EXPECT_TRUE(alloc.empty());
}

TEST(SvcFairShare, BusyPoolOverGrabIsTheDocumentedDefault) {
  // 7 of 8 nodes are held: the target (max_share 0.45 of the 800-mops
  // total = 360) dwarfs the 100 mops that are free, and the
  // work-conserving policy grants the entire remainder.  This pins the
  // documented limitation the recorded bench baselines rely on.
  const auto free_nodes = uniform_free(1, 100.0);
  const auto alloc =
      pick_allocation(free_nodes, 800.0, 1.0, ShareRequest{1.0, 1, 0.45});
  EXPECT_EQ(alloc.size(), 1u);
}

TEST(SvcFairShare, FairTargetIsWeightedAndCapped) {
  EXPECT_DOUBLE_EQ(fair_target_mops(800.0, 0.0, {1.0, 1, 1.0}), 800.0);
  EXPECT_DOUBLE_EQ(fair_target_mops(800.0, 1.0, {1.0, 1, 1.0}), 400.0);
  EXPECT_DOUBLE_EQ(fair_target_mops(800.0, 1.0, {3.0, 1, 1.0}), 600.0);
  EXPECT_DOUBLE_EQ(fair_target_mops(800.0, 0.0, {1.0, 1, 0.25}), 200.0);
}

}  // namespace
}  // namespace grasp::svc
