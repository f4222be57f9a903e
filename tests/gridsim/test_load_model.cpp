#include "gridsim/load_model.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

namespace grasp::gridsim {
namespace {

TEST(ConstantLoad, AlwaysSameValue) {
  ConstantLoad load(1.5);
  EXPECT_DOUBLE_EQ(load.load_at(Seconds{0.0}), 1.5);
  EXPECT_DOUBLE_EQ(load.load_at(Seconds{1e6}), 1.5);
  EXPECT_THROW(ConstantLoad(-1.0), std::invalid_argument);
}

TEST(ConstantLoad, RejectsNonFiniteLoad) {
  // A NaN load would read as an idle node; an infinite one stalls the node
  // for the whole integration horizon.
  EXPECT_THROW(ConstantLoad(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(ConstantLoad(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(StepLoad, SegmentsApplyInOrder) {
  StepLoad load({{Seconds{10.0}, 2.0}, {Seconds{20.0}, 0.5}}, 0.1);
  EXPECT_DOUBLE_EQ(load.load_at(Seconds{0.0}), 0.1);
  EXPECT_DOUBLE_EQ(load.load_at(Seconds{9.999}), 0.1);
  EXPECT_DOUBLE_EQ(load.load_at(Seconds{10.0}), 2.0);
  EXPECT_DOUBLE_EQ(load.load_at(Seconds{15.0}), 2.0);
  EXPECT_DOUBLE_EQ(load.load_at(Seconds{25.0}), 0.5);
}

TEST(StepLoad, RejectsUnsortedSegments) {
  EXPECT_THROW(
      StepLoad({{Seconds{20.0}, 1.0}, {Seconds{10.0}, 2.0}}, 0.0),
      std::invalid_argument);
}

TEST(DiurnalLoad, OscillatesWithPeriodAndClampsAtZero) {
  DiurnalLoad load(1.0, 2.0, Seconds{100.0});
  // At t=25 (quarter period) sin = 1 -> 3.0; at t=75 sin = -1 -> clamp 0.
  EXPECT_NEAR(load.load_at(Seconds{25.0}), 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(load.load_at(Seconds{75.0}), 0.0);
  // Periodicity.
  EXPECT_NEAR(load.load_at(Seconds{25.0}), load.load_at(Seconds{125.0}), 1e-9);
}

TEST(DiurnalLoad, RejectsNonPositivePeriod) {
  EXPECT_THROW(DiurnalLoad(1.0, 1.0, Seconds{0.0}), std::invalid_argument);
}

TEST(RandomWalkLoad, DeterministicAndQueryOrderInvariant) {
  RandomWalkLoad::Params p;
  p.slot = Seconds{1.0};
  RandomWalkLoad a(p, 99);
  RandomWalkLoad b(p, 99);
  // Query a forward, b backward: values must agree exactly.
  std::vector<double> fwd, bwd;
  for (int k = 0; k < 50; ++k) fwd.push_back(a.load_at(Seconds{k + 0.5}));
  for (int k = 49; k >= 0; --k) bwd.push_back(b.load_at(Seconds{k + 0.5}));
  for (int k = 0; k < 50; ++k) EXPECT_DOUBLE_EQ(fwd[k], bwd[49 - k]);
}

TEST(RandomWalkLoad, StaysInBounds) {
  RandomWalkLoad::Params p;
  p.max_load = 2.0;
  p.step_stddev = 5.0;  // violent steps, clamping must hold
  RandomWalkLoad load(p, 5);
  for (int k = 0; k < 500; ++k) {
    const double v = load.load_at(Seconds{static_cast<double>(k)});
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 2.0);
  }
}

TEST(RandomWalkLoad, ConstantWithinSlot) {
  RandomWalkLoad::Params p;
  p.slot = Seconds{2.0};
  RandomWalkLoad load(p, 7);
  EXPECT_DOUBLE_EQ(load.load_at(Seconds{4.0}), load.load_at(Seconds{5.9}));
}

TEST(RandomWalkLoad, CloneReplaysIdenticalTrajectory) {
  RandomWalkLoad::Params p;
  RandomWalkLoad original(p, 31);
  // Advance the original before cloning; clone must still replay from t=0.
  (void)original.load_at(Seconds{100.0});
  const auto clone = original.clone();
  for (int k = 0; k < 120; ++k) {
    const Seconds t{static_cast<double>(k)};
    EXPECT_DOUBLE_EQ(original.load_at(t), clone->load_at(t));
  }
}

TEST(BurstyLoad, OnlyTwoLevels) {
  BurstyLoad::Params p;
  p.idle_load = 0.2;
  p.busy_load = 3.0;
  BurstyLoad load(p, 11);
  for (int k = 0; k < 300; ++k) {
    const double v = load.load_at(Seconds{static_cast<double>(k)});
    EXPECT_TRUE(v == 0.2 || v == 3.0) << "level " << v;
  }
}

TEST(BurstyLoad, VisitsBothStatesEventually) {
  BurstyLoad::Params p;
  p.p_idle_to_busy = 0.2;
  p.p_busy_to_idle = 0.2;
  BurstyLoad load(p, 13);
  bool saw_idle = false, saw_busy = false;
  for (int k = 0; k < 500; ++k) {
    const double v = load.load_at(Seconds{static_cast<double>(k)});
    if (v == p.idle_load) saw_idle = true;
    if (v == p.busy_load) saw_busy = true;
  }
  EXPECT_TRUE(saw_idle);
  EXPECT_TRUE(saw_busy);
}

TEST(TraceLoad, ReplaysAndHoldsLastSample) {
  TraceLoad load({1.0, 2.0, 3.0}, Seconds{10.0});
  EXPECT_DOUBLE_EQ(load.load_at(Seconds{0.0}), 1.0);
  EXPECT_DOUBLE_EQ(load.load_at(Seconds{15.0}), 2.0);
  EXPECT_DOUBLE_EQ(load.load_at(Seconds{29.0}), 3.0);
  EXPECT_DOUBLE_EQ(load.load_at(Seconds{1e6}), 3.0);
}

TEST(TraceLoad, RejectsBadInputs) {
  EXPECT_THROW(TraceLoad({}, Seconds{1.0}), std::invalid_argument);
  EXPECT_THROW(TraceLoad({1.0}, Seconds{0.0}), std::invalid_argument);
}

TEST(CompositeLoad, SumsAndClamps) {
  std::vector<std::unique_ptr<LoadModel>> parts;
  parts.push_back(std::make_unique<ConstantLoad>(1.0));
  parts.push_back(std::make_unique<ConstantLoad>(2.0));
  CompositeLoad load(std::move(parts), 2.5);
  EXPECT_DOUBLE_EQ(load.load_at(Seconds{0.0}), 2.5);  // clamped from 3.0
}

TEST(CompositeLoad, SlotWidthIsFinestComponent) {
  std::vector<std::unique_ptr<LoadModel>> parts;
  parts.push_back(std::make_unique<ConstantLoad>(0.0));  // continuous
  RandomWalkLoad::Params p1;
  p1.slot = Seconds{4.0};
  parts.push_back(std::make_unique<RandomWalkLoad>(p1, 1));
  RandomWalkLoad::Params p2;
  p2.slot = Seconds{2.0};
  parts.push_back(std::make_unique<RandomWalkLoad>(p2, 2));
  CompositeLoad load(std::move(parts));
  EXPECT_DOUBLE_EQ(load.slot_width().value, 2.0);
}

TEST(CompositeLoad, CloneIsDeepAndEquivalent) {
  std::vector<std::unique_ptr<LoadModel>> parts;
  RandomWalkLoad::Params p;
  parts.push_back(std::make_unique<RandomWalkLoad>(p, 17));
  parts.push_back(std::make_unique<ConstantLoad>(0.5));
  CompositeLoad load(std::move(parts));
  const auto clone = load.clone();
  for (int k = 0; k < 50; ++k) {
    const Seconds t{static_cast<double>(k)};
    EXPECT_DOUBLE_EQ(load.load_at(t), clone->load_at(t));
  }
}

TEST(SharingFraction, ProcessorSharingRule) {
  EXPECT_DOUBLE_EQ(sharing_fraction(1.0, 0.0), 1.0);   // dedicated
  EXPECT_DOUBLE_EQ(sharing_fraction(1.0, 1.0), 0.5);   // one competitor
  EXPECT_DOUBLE_EQ(sharing_fraction(1.0, 3.0), 0.25);
  EXPECT_DOUBLE_EQ(sharing_fraction(4.0, 1.0), 1.0);   // cores absorb load
  EXPECT_DOUBLE_EQ(sharing_fraction(4.0, 7.0), 0.5);
  EXPECT_DOUBLE_EQ(sharing_fraction(1.0, -5.0), 1.0);  // negative clamped
}

}  // namespace
}  // namespace grasp::gridsim
