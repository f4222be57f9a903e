#include "gridsim/node_model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>

#include "support/rng.hpp"

namespace grasp::gridsim {
namespace {

NodeModel make_node(double speed, std::unique_ptr<LoadModel> load = nullptr,
                    double cores = 1.0,
                    std::vector<Downtime> downtimes = {}) {
  NodeModel::Params p;
  p.id = NodeId{0};
  p.name = "n0";
  p.site = SiteId{0};
  p.base_speed_mops = speed;
  p.cores = cores;
  p.load = std::move(load);
  p.downtimes = std::move(downtimes);
  return NodeModel(std::move(p));
}

TEST(NodeModel, DedicatedComputeTimeIsWorkOverSpeed) {
  const NodeModel node = make_node(100.0);
  EXPECT_NEAR(node.compute_time(Mops{250.0}, Seconds{0.0}).value, 2.5, 1e-9);
  EXPECT_NEAR(node.compute_time(Mops{250.0}, Seconds{123.4}).value, 2.5, 1e-9);
}

TEST(NodeModel, ZeroWorkIsFree) {
  const NodeModel node = make_node(100.0);
  EXPECT_DOUBLE_EQ(node.compute_time(Mops{0.0}, Seconds{5.0}).value, 0.0);
}

TEST(NodeModel, ConstantLoadHalvesSpeed) {
  // Load 1 on a single core -> sharing fraction 1/2.
  const NodeModel node = make_node(100.0, std::make_unique<ConstantLoad>(1.0));
  EXPECT_NEAR(node.compute_time(Mops{100.0}, Seconds{0.0}).value, 2.0, 1e-9);
  EXPECT_DOUBLE_EQ(node.effective_speed(Seconds{0.0}), 50.0);
}

TEST(NodeModel, MultiCoreAbsorbsLoad) {
  const NodeModel node =
      make_node(100.0, std::make_unique<ConstantLoad>(1.0), 2.0);
  // 2 cores, load 1 + our task = 2 runnable <= cores -> full speed.
  EXPECT_DOUBLE_EQ(node.effective_speed(Seconds{0.0}), 100.0);
}

TEST(NodeModel, StepLoadIntegratesAcrossChange) {
  // Speed 100; load 0 until t=1, then load 3 (quarter speed).
  auto load = std::make_unique<StepLoad>(
      std::vector<StepLoad::Segment>{{Seconds{1.0}, 3.0}}, 0.0);
  const NodeModel node = make_node(100.0, std::move(load));
  // 150 Mops: 100 in the first second, remaining 50 at 25 Mops/s -> 2 s.
  EXPECT_NEAR(node.compute_time(Mops{150.0}, Seconds{0.0}).value, 3.0, 1e-6);
}

TEST(NodeModel, DowntimeDelaysCompletion) {
  const NodeModel node =
      make_node(100.0, nullptr, 1.0, {{Seconds{1.0}, Seconds{4.0}}});
  // 200 Mops from t=0: 1 s of work, 3 s down, then 1 s of work -> 5 s.
  EXPECT_NEAR(node.compute_time(Mops{200.0}, Seconds{0.0}).value, 5.0, 1e-6);
  EXPECT_TRUE(node.is_down(Seconds{2.0}));
  EXPECT_FALSE(node.is_down(Seconds{4.0}));
  EXPECT_DOUBLE_EQ(node.effective_speed(Seconds{2.0}), 0.0);
}

TEST(NodeModel, StartInsideDowntimeWaitsForRecovery) {
  const NodeModel node =
      make_node(100.0, nullptr, 1.0, {{Seconds{0.0}, Seconds{10.0}}});
  EXPECT_NEAR(node.compute_time(Mops{100.0}, Seconds{5.0}).value, 6.0, 1e-6);
}

TEST(NodeModel, AddDowntimeValidates) {
  NodeModel node = make_node(100.0);
  node.add_downtime({Seconds{5.0}, Seconds{6.0}});
  EXPECT_THROW(node.add_downtime({Seconds{5.5}, Seconds{7.0}}),
               std::invalid_argument);
  EXPECT_THROW(node.add_downtime({Seconds{9.0}, Seconds{8.0}}),
               std::invalid_argument);
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(node.add_downtime({Seconds{kNaN}, Seconds{8.0}}),
               std::invalid_argument);
  EXPECT_THROW(node.add_downtime({Seconds{7.0}, Seconds{kNaN}}),
               std::invalid_argument);
  EXPECT_THROW(node.add_downtime({Seconds{7.0}, Seconds{kInf}}),
               std::invalid_argument);
}

TEST(NodeModel, RejectsBadParams) {
  EXPECT_THROW(make_node(0.0), std::invalid_argument);
  EXPECT_THROW(make_node(100.0, nullptr, 0.5), std::invalid_argument);
  EXPECT_THROW(
      make_node(100.0, nullptr, 1.0, {{Seconds{2.0}, Seconds{1.0}}}),
      std::invalid_argument);
  EXPECT_THROW(make_node(100.0, nullptr, 1.0,
                         {{Seconds{0.0}, Seconds{3.0}},
                          {Seconds{2.0}, Seconds{4.0}}}),
               std::invalid_argument);
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(make_node(kNaN), std::invalid_argument);
  EXPECT_THROW(make_node(kInf), std::invalid_argument);
  EXPECT_THROW(make_node(100.0, nullptr, kNaN), std::invalid_argument);
  EXPECT_THROW(make_node(100.0, nullptr, kInf), std::invalid_argument);
  EXPECT_THROW(make_node(100.0, nullptr, 1.0, {{Seconds{kNaN}, Seconds{1.0}}}),
               std::invalid_argument);
}

TEST(NodeModel, CopyIsDeep) {
  RandomWalkLoad::Params p;
  NodeModel a = make_node(100.0, std::make_unique<RandomWalkLoad>(p, 3));
  const NodeModel b = a;  // copy
  for (int k = 0; k < 20; ++k) {
    const Seconds t{static_cast<double>(k)};
    EXPECT_DOUBLE_EQ(a.load_at(t), b.load_at(t));
  }
  a.set_load_model(std::make_unique<ConstantLoad>(0.0));
  EXPECT_DOUBLE_EQ(a.load_at(Seconds{0.0}), 0.0);  // b unaffected by a's swap
}

TEST(NodeModel, SetLoadModelRejectsNull) {
  NodeModel node = make_node(100.0);
  EXPECT_THROW(node.set_load_model(nullptr), std::invalid_argument);
}

TEST(NodeModel, WorkConservedUnderDynamicLoad) {
  // Property: splitting work into two sequential computes takes exactly as
  // long as one combined compute, for any load trajectory.
  RandomWalkLoad::Params p;
  p.step_stddev = 0.5;
  NodeModel node = make_node(80.0, std::make_unique<RandomWalkLoad>(p, 21));
  const Seconds whole = node.compute_time(Mops{500.0}, Seconds{0.0});
  const Seconds first = node.compute_time(Mops{200.0}, Seconds{0.0});
  const Seconds second =
      node.compute_time(Mops{300.0}, Seconds{first.value});
  EXPECT_NEAR(whole.value, first.value + second.value, 1e-6);
}

// A ConstantLoad node without downtime takes the steady path (speed
// computed once); StepLoad({}, load) gives the same speed through the
// general path.  Both must integrate to the same bits.
TEST(NodeModel, SteadyPathMatchesTheGeneralPathBitForBit) {
  Rng rng(11);
  for (int i = 0; i < 400; ++i) {
    const double speed = rng.uniform(1.0, 500.0);
    const double cores = 1.0 + static_cast<double>(rng.uniform_index(8));
    const double load = rng.bernoulli(0.2) ? 0.0 : rng.uniform(0.0, 12.0);
    const Seconds start{rng.uniform(0.0, 1e5)};
    const Mops work{rng.uniform(0.0, 5000.0)};
    const NodeModel steady =
        make_node(speed, std::make_unique<ConstantLoad>(load), cores);
    const NodeModel general = make_node(
        speed, std::make_unique<StepLoad>(std::vector<StepLoad::Segment>{}, load),
        cores);
    const Seconds took = steady.compute_time(work, start);
    EXPECT_EQ(took.value, general.compute_time(work, start).value) << i;
    const Seconds until{start.value + rng.uniform(0.0, 2.0) * took.value};
    EXPECT_EQ(steady.work_done(start, until).value,
              general.work_done(start, until).value)
        << i;
  }
}

TEST(NodeModel, DowntimeOrVaryingLoadLeavesTheSteadyPath) {
  NodeModel node = make_node(100.0, std::make_unique<ConstantLoad>(1.0));
  EXPECT_DOUBLE_EQ(node.compute_time(Mops{100.0}, Seconds{0.0}).value, 2.0);
  node.add_downtime({Seconds{1.0}, Seconds{4.0}});
  // 50 Mops before the window, 3 s down, 50 Mops after.
  EXPECT_NEAR(node.compute_time(Mops{100.0}, Seconds{0.0}).value, 5.0, 1e-9);
  EXPECT_NEAR(node.work_done(Seconds{0.0}, Seconds{4.0}).value, 50.0, 1e-9);

  NodeModel stepped = make_node(100.0);
  EXPECT_DOUBLE_EQ(stepped.compute_time(Mops{150.0}, Seconds{0.0}).value, 1.5);
  stepped.set_load_model(std::make_unique<StepLoad>(
      std::vector<StepLoad::Segment>{{Seconds{1.0}, 3.0}}, 0.0));
  // 100 Mops in the first second, the other 50 at quarter speed.
  EXPECT_NEAR(stepped.compute_time(Mops{150.0}, Seconds{0.0}).value, 3.0,
              1e-9);
  EXPECT_NEAR(stepped.work_done(Seconds{0.0}, Seconds{2.0}).value, 125.0,
              1e-9);
  // A copy keeps the general path; swapping a constant load back in
  // restores the steady speed.
  const NodeModel copy = stepped;
  EXPECT_NEAR(copy.compute_time(Mops{150.0}, Seconds{0.0}).value, 3.0, 1e-9);
  stepped.set_load_model(std::make_unique<ConstantLoad>(3.0));
  EXPECT_DOUBLE_EQ(stepped.compute_time(Mops{100.0}, Seconds{0.0}).value,
                   4.0);
}

}  // namespace
}  // namespace grasp::gridsim
