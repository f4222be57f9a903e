#include "gridsim/node_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

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

// Work delivered on [from, until), as a left Riemann sum of effective_speed
// at a fine step: the reference integral the segment walks must agree with.
double reference_work(const NodeModel& node, double from, double until) {
  constexpr double kDt = 2.5e-4;
  double done = 0.0;
  for (double t = from; t < until; t += kDt)
    done += node.effective_speed(Seconds{t}) * (std::min(t + kDt, until) - t);
  return done;
}

// One node per load model, each with loads that change between the 0.25 s
// grid points (steps at 1.1 s and 5.3 s, slots of 0.7 s).
std::vector<std::pair<std::string, std::unique_ptr<LoadModel>>> every_model() {
  std::vector<std::pair<std::string, std::unique_ptr<LoadModel>>> models;
  models.emplace_back("constant", std::make_unique<ConstantLoad>(1.5));
  models.emplace_back(
      "step", std::make_unique<StepLoad>(
                  std::vector<StepLoad::Segment>{{Seconds{1.1}, 3.0},
                                                 {Seconds{5.3}, 0.5}},
                  0.0));
  models.emplace_back("diurnal", std::make_unique<DiurnalLoad>(
                                     1.0, 1.0, Seconds{600.0}, Seconds{40.0}));
  RandomWalkLoad::Params walk;
  walk.slot = Seconds{0.7};
  walk.step_stddev = 0.6;
  models.emplace_back("walk", std::make_unique<RandomWalkLoad>(walk, 5));
  BurstyLoad::Params bursty;
  bursty.slot = Seconds{0.7};
  bursty.p_idle_to_busy = 0.3;
  bursty.p_busy_to_idle = 0.3;
  models.emplace_back("bursty", std::make_unique<BurstyLoad>(bursty, 6));
  models.emplace_back("trace", std::make_unique<TraceLoad>(
                                   std::vector<double>{0.0, 2.0, 0.5, 4.0, 1.0},
                                   Seconds{1.3}));
  std::vector<std::unique_ptr<LoadModel>> parts;
  parts.push_back(std::make_unique<RandomWalkLoad>(walk, 7));
  parts.push_back(std::make_unique<BurstyLoad>(bursty, 8));
  parts.push_back(std::make_unique<DiurnalLoad>(0.5, 0.5, Seconds{600.0}));
  parts.push_back(std::make_unique<StepLoad>(
      std::vector<StepLoad::Segment>{{Seconds{2.6}, 2.0}}, 0.0));
  models.emplace_back("composite",
                      std::make_unique<CompositeLoad>(std::move(parts)));
  return models;
}

// Back-to-back windows, one starting inside a 0.25 s grid cell.
std::vector<Downtime> some_downtimes() {
  return {{Seconds{2.1}, Seconds{3.0}},
          {Seconds{3.0}, Seconds{3.4}},
          {Seconds{7.65}, Seconds{9.0}}};
}

// The walks agree with the fine-step reference.  The bound covers the
// reference's own error: one step of full speed per load change (<= 2.5e-4
// s per >= 0.7 s segment) plus, for the diurnal parts, the 0.25 s sampling
// grid (a slope of at most 2*pi/600 load/s, so < 1.3e-3 relative).
TEST(NodeModel, IntegralsMatchAFineStepReferenceForEveryLoadModel) {
  constexpr double kRel = 2e-3;
  for (const bool with_downtime : {false, true}) {
    for (auto& [name, load] : every_model()) {
      const NodeModel node =
          make_node(120.0, std::move(load), 1.0,
                    with_downtime ? some_downtimes() : std::vector<Downtime>{});
      for (const double start : {0.0, 1.05, 6.2}) {
        for (const double work : {60.0, 400.0, 1100.0}) {
          const Seconds took = node.compute_time(Mops{work}, Seconds{start});
          ASSERT_TRUE(std::isfinite(took.value)) << name;
          EXPECT_NEAR(reference_work(node, start, start + took.value), work,
                      kRel * work)
              << name << " downtime=" << with_downtime << " start=" << start;
          const double until = start + 0.6 * took.value;
          const double ref = reference_work(node, start, until);
          EXPECT_NEAR(node.work_done(Seconds{start}, Seconds{until}).value,
                      ref, kRel * ref + 1e-9)
              << name << " downtime=" << with_downtime << " start=" << start;
        }
      }
    }
  }
}

// work_done is the inverse of compute_time over the same segments.  The
// starts are small enough that the ulp of t stays far below 1e-12 of the
// shortest duration, so only the walks' own rounding is measured.
TEST(NodeModel, WorkDoneInvertsComputeTime) {
  Rng rng(11);
  for (const bool with_downtime : {false, true}) {
    for (auto& [name, load] : every_model()) {
      const NodeModel node =
          make_node(rng.uniform(20.0, 300.0), std::move(load),
                    1.0 + static_cast<double>(rng.uniform_index(3)),
                    with_downtime ? some_downtimes() : std::vector<Downtime>{});
      for (int i = 0; i < 40; ++i) {
        const Seconds start{rng.uniform(0.0, 50.0)};
        const Mops work{rng.uniform(300.0, 5000.0)};
        const Seconds took = node.compute_time(work, start);
        const Mops done =
            node.work_done(start, Seconds{start.value + took.value});
        EXPECT_NEAR(done.value, work.value, 1e-12 * work.value)
            << name << " downtime=" << with_downtime << " i=" << i;
      }
    }
  }
}

TEST(NodeModel, StepInsideAGridCellTakesEffectAtItsTime) {
  // Load 0 until t = 1.1, then 3 (quarter speed): 110 Mops by 1.1, the
  // other 40 at 25 Mops/s.  A 0.25 s slot walk ran full speed to 1.25.
  const NodeModel node = make_node(
      100.0, std::make_unique<StepLoad>(
                 std::vector<StepLoad::Segment>{{Seconds{1.1}, 3.0}}, 0.0));
  EXPECT_NEAR(node.compute_time(Mops{150.0}, Seconds{0.0}).value, 2.7, 1e-12);
  EXPECT_NEAR(node.work_done(Seconds{0.0}, Seconds{2.0}).value, 132.5, 1e-12);
}

TEST(NodeModel, CrashInsideAGridCellTakesEffectAtItsTime) {
  // Down on [2.1, 3.0): 210 Mops by the crash, the other 90 after it.
  const NodeModel node =
      make_node(100.0, nullptr, 1.0, {{Seconds{2.1}, Seconds{3.0}}});
  EXPECT_NEAR(node.compute_time(Mops{300.0}, Seconds{0.0}).value, 3.9, 1e-12);
  EXPECT_NEAR(node.work_done(Seconds{0.0}, Seconds{2.5}).value, 210.0, 1e-12);
}

TEST(NodeModel, BackToBackDowntimesChain) {
  // [1, 2) and [2, 3) touch: the node is down from 1 to 3 without a gap.
  const NodeModel node = make_node(
      100.0, nullptr, 1.0,
      {{Seconds{1.0}, Seconds{2.0}}, {Seconds{2.0}, Seconds{3.0}}});
  EXPECT_DOUBLE_EQ(node.compute_time(Mops{200.0}, Seconds{0.0}).value, 4.0);
  EXPECT_DOUBLE_EQ(node.compute_time(Mops{100.0}, Seconds{1.5}).value, 2.5);
  EXPECT_DOUBLE_EQ(node.compute_time(Mops{100.0}, Seconds{2.0}).value, 2.0);
  EXPECT_DOUBLE_EQ(node.work_done(Seconds{0.0}, Seconds{3.5}).value, 150.0);
  EXPECT_DOUBLE_EQ(node.work_done(Seconds{1.2}, Seconds{2.9}).value, 0.0);
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
  // A copy integrates the same load; swapping a constant load back in
  // restores a single segment.
  const NodeModel copy = stepped;
  EXPECT_NEAR(copy.compute_time(Mops{150.0}, Seconds{0.0}).value, 3.0, 1e-9);
  stepped.set_load_model(std::make_unique<ConstantLoad>(3.0));
  EXPECT_DOUBLE_EQ(stepped.compute_time(Mops{100.0}, Seconds{0.0}).value,
                   4.0);
}

}  // namespace
}  // namespace grasp::gridsim
