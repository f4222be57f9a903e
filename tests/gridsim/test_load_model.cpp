#include "gridsim/load_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

namespace grasp::gridsim {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// load_at must hold still on [t, next_change(t)): probe a few interior
// points, and check that the change time lies strictly after t.
void expect_constant_until_next_change(const LoadModel& load, double t) {
  const double end = load.next_change(Seconds{t}).value;
  ASSERT_GT(end, t);
  const double span = std::isfinite(end) ? end - t : 100.0;
  const double at = load.load_at(Seconds{t});
  for (const double f : {0.0, 0.25, 0.5, 0.999})
    EXPECT_EQ(load.load_at(Seconds{t + f * span}), at) << "t=" << t;
}

TEST(ConstantLoad, AlwaysSameValue) {
  ConstantLoad load(1.5);
  EXPECT_DOUBLE_EQ(load.load_at(Seconds{0.0}), 1.5);
  EXPECT_DOUBLE_EQ(load.load_at(Seconds{1e6}), 1.5);
  EXPECT_THROW(ConstantLoad(-1.0), std::invalid_argument);
}

TEST(ConstantLoad, RejectsNonFiniteLoad) {
  // A NaN load would read as an idle node; an infinite one stalls the node
  // for the whole integration horizon.
  EXPECT_THROW(ConstantLoad{kNaN}, std::invalid_argument);
  EXPECT_THROW(ConstantLoad{kInf}, std::invalid_argument);
}

TEST(ConstantLoad, NeverChanges) {
  ConstantLoad load(1.5);
  EXPECT_EQ(load.next_change(Seconds{0.0}).value, kInf);
  EXPECT_EQ(load.next_change(Seconds{1e6}).value, kInf);
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

TEST(StepLoad, RejectsHostileLoadsAndStarts) {
  EXPECT_THROW(StepLoad({}, -1.0), std::invalid_argument);
  EXPECT_THROW(StepLoad({}, kNaN), std::invalid_argument);
  EXPECT_THROW(StepLoad({}, kInf), std::invalid_argument);
  EXPECT_THROW(StepLoad({{Seconds{1.0}, kNaN}}), std::invalid_argument);
  EXPECT_THROW(StepLoad({{Seconds{1.0}, kInf}}), std::invalid_argument);
  EXPECT_THROW(StepLoad({{Seconds{1.0}, -0.5}}), std::invalid_argument);
  EXPECT_THROW(StepLoad({{Seconds{kNaN}, 1.0}}), std::invalid_argument);
  EXPECT_THROW(StepLoad({{Seconds{kInf}, 1.0}}), std::invalid_argument);
  EXPECT_THROW(StepLoad({{Seconds{-kInf}, 1.0}}), std::invalid_argument);
}

TEST(StepLoad, NextChangeIsTheNextStep) {
  StepLoad load({{Seconds{1.1}, 2.0}, {Seconds{3.0}, 1.0}}, 0.5);
  EXPECT_DOUBLE_EQ(load.next_change(Seconds{0.0}).value, 1.1);
  EXPECT_DOUBLE_EQ(load.next_change(Seconds{1.1}).value, 3.0);
  EXPECT_DOUBLE_EQ(load.next_change(Seconds{2.0}).value, 3.0);
  EXPECT_EQ(load.next_change(Seconds{3.0}).value, kInf);
  for (const double t : {-1.0, 0.0, 1.0, 1.1, 2.9, 3.0, 50.0})
    expect_constant_until_next_change(load, t);
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

TEST(DiurnalLoad, RejectsNonFiniteParams) {
  const Seconds day{100.0};
  EXPECT_THROW(DiurnalLoad(1.0, 1.0, Seconds{kNaN}), std::invalid_argument);
  EXPECT_THROW(DiurnalLoad(1.0, 1.0, Seconds{kInf}), std::invalid_argument);
  EXPECT_THROW(DiurnalLoad(kNaN, 1.0, day), std::invalid_argument);
  EXPECT_THROW(DiurnalLoad(kInf, 1.0, day), std::invalid_argument);
  EXPECT_THROW(DiurnalLoad(1.0, kNaN, day), std::invalid_argument);
  EXPECT_THROW(DiurnalLoad(1.0, -kInf, day), std::invalid_argument);
  EXPECT_THROW(DiurnalLoad(1.0, 1.0, day, Seconds{kNaN}),
               std::invalid_argument);
  EXPECT_THROW(DiurnalLoad(1.0, 1.0, day, Seconds{kInf}),
               std::invalid_argument);
}

TEST(DiurnalLoad, NextChangeIsTheSampleGrid) {
  DiurnalLoad load(1.0, 2.0, Seconds{100.0});
  EXPECT_DOUBLE_EQ(load.next_change(Seconds{0.0}).value, 0.25);
  EXPECT_DOUBLE_EQ(load.next_change(Seconds{0.1}).value, 0.25);
  EXPECT_DOUBLE_EQ(load.next_change(Seconds{0.25}).value, 0.5);
  EXPECT_DOUBLE_EQ(load.next_change(Seconds{10.3}).value, 10.5);
  EXPECT_DOUBLE_EQ(load.next_change(Seconds{-0.1}).value, 0.0);
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

TEST(RandomWalkLoad, NextChangeIsTheSlotEnd) {
  RandomWalkLoad::Params p;
  p.slot = Seconds{2.0};
  RandomWalkLoad load(p, 7);
  EXPECT_DOUBLE_EQ(load.next_change(Seconds{0.0}).value, 2.0);
  EXPECT_DOUBLE_EQ(load.next_change(Seconds{3.9}).value, 4.0);
  EXPECT_DOUBLE_EQ(load.next_change(Seconds{4.0}).value, 6.0);
  for (const double t : {0.0, 0.7, 2.0, 3.9, 11.0})
    expect_constant_until_next_change(load, t);
}

TEST(RandomWalkLoad, RejectsNonFiniteSlot) {
  // A NaN slot used to reach load_at's size_t cast (undefined behaviour).
  RandomWalkLoad::Params p;
  p.slot = Seconds{kNaN};
  EXPECT_THROW(RandomWalkLoad(p, 1), std::invalid_argument);
  p.slot = Seconds{kInf};
  EXPECT_THROW(RandomWalkLoad(p, 1), std::invalid_argument);
  p.slot = Seconds{0.0};
  EXPECT_THROW(RandomWalkLoad(p, 1), std::invalid_argument);
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

TEST(BurstyLoad, NextChangeIsTheSlotEnd) {
  BurstyLoad::Params p;
  p.p_idle_to_busy = 0.5;
  p.p_busy_to_idle = 0.5;
  BurstyLoad load(p, 3);
  EXPECT_DOUBLE_EQ(load.next_change(Seconds{0.5}).value, 1.0);
  EXPECT_DOUBLE_EQ(load.next_change(Seconds{1.0}).value, 2.0);
  for (const double t : {0.0, 0.5, 1.0, 7.25, 30.0})
    expect_constant_until_next_change(load, t);
}

TEST(BurstyLoad, RejectsNonFiniteSlotAndBadProbabilities) {
  BurstyLoad::Params p;
  p.slot = Seconds{kNaN};
  EXPECT_THROW(BurstyLoad(p, 1), std::invalid_argument);
  p.slot = Seconds{kInf};
  EXPECT_THROW(BurstyLoad(p, 1), std::invalid_argument);
  p.slot = Seconds{-1.0};
  EXPECT_THROW(BurstyLoad(p, 1), std::invalid_argument);
  p = BurstyLoad::Params{};
  p.p_idle_to_busy = -0.1;
  EXPECT_THROW(BurstyLoad(p, 1), std::invalid_argument);
  p.p_idle_to_busy = 1.5;
  EXPECT_THROW(BurstyLoad(p, 1), std::invalid_argument);
  p.p_idle_to_busy = kNaN;
  EXPECT_THROW(BurstyLoad(p, 1), std::invalid_argument);
  p = BurstyLoad::Params{};
  p.p_busy_to_idle = 1.0001;
  EXPECT_THROW(BurstyLoad(p, 1), std::invalid_argument);
  p.p_busy_to_idle = kNaN;
  EXPECT_THROW(BurstyLoad(p, 1), std::invalid_argument);
  // The closed interval's ends are legal: a state that never (or always)
  // flips.
  p = BurstyLoad::Params{};
  p.p_idle_to_busy = 0.0;
  p.p_busy_to_idle = 1.0;
  EXPECT_NO_THROW(BurstyLoad(p, 1));
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
  EXPECT_THROW(TraceLoad({1.0}, Seconds{kNaN}), std::invalid_argument);
  EXPECT_THROW(TraceLoad({1.0}, Seconds{kInf}), std::invalid_argument);
  EXPECT_THROW(TraceLoad({1.0, kNaN}, Seconds{1.0}), std::invalid_argument);
  EXPECT_THROW(TraceLoad({1.0, -2.0}, Seconds{1.0}), std::invalid_argument);
  EXPECT_THROW(TraceLoad({kInf}, Seconds{1.0}), std::invalid_argument);
}

TEST(TraceLoad, NextChangeStopsAfterTheLastSample) {
  TraceLoad load({1.0, 2.0, 3.0}, Seconds{10.0});
  EXPECT_DOUBLE_EQ(load.next_change(Seconds{0.0}).value, 10.0);
  EXPECT_DOUBLE_EQ(load.next_change(Seconds{15.0}).value, 20.0);
  EXPECT_EQ(load.next_change(Seconds{20.0}).value, kInf);
  EXPECT_EQ(load.next_change(Seconds{1e6}).value, kInf);
  for (const double t : {-5.0, 0.0, 9.0, 15.0, 20.0, 99.0})
    expect_constant_until_next_change(load, t);
}

TEST(CompositeLoad, SumsAndClamps) {
  std::vector<std::unique_ptr<LoadModel>> parts;
  parts.push_back(std::make_unique<ConstantLoad>(1.0));
  parts.push_back(std::make_unique<ConstantLoad>(2.0));
  CompositeLoad load(std::move(parts), 2.5);
  EXPECT_DOUBLE_EQ(load.load_at(Seconds{0.0}), 2.5);  // clamped from 3.0
}

TEST(CompositeLoad, NextChangeIsEarliestComponent) {
  std::vector<std::unique_ptr<LoadModel>> parts;
  parts.push_back(std::make_unique<ConstantLoad>(0.0));  // never changes
  RandomWalkLoad::Params p1;
  p1.slot = Seconds{4.0};
  parts.push_back(std::make_unique<RandomWalkLoad>(p1, 1));
  RandomWalkLoad::Params p2;
  p2.slot = Seconds{2.0};
  parts.push_back(std::make_unique<RandomWalkLoad>(p2, 2));
  parts.push_back(std::make_unique<StepLoad>(
      std::vector<StepLoad::Segment>{{Seconds{5.1}, 1.0}}, 0.0));
  CompositeLoad load(std::move(parts));
  EXPECT_DOUBLE_EQ(load.next_change(Seconds{0.0}).value, 2.0);
  EXPECT_DOUBLE_EQ(load.next_change(Seconds{4.5}).value, 5.1);  // the step
  EXPECT_DOUBLE_EQ(load.next_change(Seconds{5.1}).value, 6.0);
  for (const double t : {0.0, 1.5, 4.5, 5.1, 9.0})
    expect_constant_until_next_change(load, t);

  // A diurnal part keeps its own 0.25 s grid beside 1 s slotted parts.
  std::vector<std::unique_ptr<LoadModel>> mixed;
  mixed.push_back(
      std::make_unique<RandomWalkLoad>(RandomWalkLoad::Params{}, 3));
  mixed.push_back(std::make_unique<DiurnalLoad>(0.5, 0.5, Seconds{600.0}));
  const CompositeLoad both(std::move(mixed));
  EXPECT_DOUBLE_EQ(both.next_change(Seconds{0.3}).value, 0.5);
}

TEST(CompositeLoad, RejectsNullPartAndBadMaxLoad) {
  auto one_part = [] {
    std::vector<std::unique_ptr<LoadModel>> parts;
    parts.push_back(std::make_unique<ConstantLoad>(1.0));
    return parts;
  };
  std::vector<std::unique_ptr<LoadModel>> with_null = one_part();
  with_null.push_back(nullptr);
  EXPECT_THROW(CompositeLoad(std::move(with_null)), std::invalid_argument);
  EXPECT_THROW(CompositeLoad(one_part(), kNaN), std::invalid_argument);
  EXPECT_THROW(CompositeLoad(one_part(), kInf), std::invalid_argument);
  EXPECT_THROW(CompositeLoad(one_part(), -1.0), std::invalid_argument);
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
