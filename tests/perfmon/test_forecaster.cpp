#include "perfmon/forecaster.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "support/rng.hpp"

namespace grasp::perfmon {
namespace {

Sample at(double t, double v) { return Sample{Seconds{t}, v}; }

TEST(LastValue, TracksMostRecent) {
  LastValueForecaster f;
  EXPECT_DOUBLE_EQ(f.forecast(), 0.0);
  f.observe(at(0, 3.0));
  f.observe(at(1, 7.0));
  EXPECT_DOUBLE_EQ(f.forecast(), 7.0);
}

TEST(RunningMean, AveragesAll) {
  RunningMeanForecaster f;
  f.observe(at(0, 2.0));
  f.observe(at(1, 4.0));
  f.observe(at(2, 6.0));
  EXPECT_DOUBLE_EQ(f.forecast(), 4.0);
}

TEST(SlidingMedian, RobustToOutliers) {
  SlidingMedianForecaster f(5);
  for (double v : {1.0, 1.0, 100.0, 1.0, 1.0}) f.observe(at(0, v));
  EXPECT_DOUBLE_EQ(f.forecast(), 1.0);
}

TEST(SlidingMedian, WindowSlides) {
  SlidingMedianForecaster f(3);
  for (double v : {1.0, 2.0, 3.0, 10.0, 11.0}) f.observe(at(0, v));
  EXPECT_DOUBLE_EQ(f.forecast(), 10.0);  // window {3, 10, 11}
}

TEST(EwmaForecast, Smooths) {
  EwmaForecaster f(0.5);
  f.observe(at(0, 10.0));
  f.observe(at(1, 0.0));
  EXPECT_DOUBLE_EQ(f.forecast(), 5.0);
}

TEST(Ar1, ExtrapolatesLinearTrendWithinRange) {
  Ar1Forecaster f(16);
  // x_{k+1} = x_k + 1: AR(1) with slope 1, intercept 1.
  for (int k = 0; k < 10; ++k) f.observe(at(k, static_cast<double>(k)));
  // Prediction is clamped to the observed range, so expect the max (9),
  // which is the best in-range estimate of the next value (10).
  EXPECT_NEAR(f.forecast(), 9.0, 1e-9);
}

TEST(Ar1, MeanRevertingSeriesPredictsNearMean) {
  Ar1Forecaster f(32);
  Rng rng(3);
  double x = 0.5;
  for (int k = 0; k < 32; ++k) {
    x = 0.5 + 0.5 * (x - 0.5) + rng.normal(0.0, 0.01);
    f.observe(at(k, x));
  }
  EXPECT_NEAR(f.forecast(), 0.5, 0.15);
}

TEST(Ar1, FallsBackToLastValueWhenShort) {
  Ar1Forecaster f(16);
  f.observe(at(0, 42.0));
  EXPECT_DOUBLE_EQ(f.forecast(), 42.0);
}

TEST(Factory, BuildsEveryKnownName) {
  for (const char* name : {"last_value", "running_mean", "sliding_median",
                           "ewma", "ar1", "meta"}) {
    const auto f = make_forecaster(name);
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->name(), name);
  }
  EXPECT_THROW((void)make_forecaster("nope"), std::invalid_argument);
}

// Property sweep over every forecaster: on a constant series the forecast
// equals the constant, and clones forecast identically.
class ForecasterSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(ForecasterSweep, ConstantSeriesIsFixedPoint) {
  const auto f = make_forecaster(GetParam());
  for (int k = 0; k < 40; ++k) f->observe(at(k, 3.25));
  EXPECT_NEAR(f->forecast(), 3.25, 1e-9);
}

TEST_P(ForecasterSweep, CloneForecastsIdentically) {
  const auto f = make_forecaster(GetParam());
  Rng rng(7);
  for (int k = 0; k < 25; ++k) f->observe(at(k, rng.uniform(0.0, 5.0)));
  const auto clone = f->clone();
  EXPECT_EQ(f->forecast(), clone->forecast());
  // The clone carries the whole state: fed the same 80 further samples,
  // past every window and the meta error ring, both stay bit-identical.
  for (int k = 25; k < 105; ++k) {
    const Sample s = at(k, rng.uniform(0.0, 5.0));
    f->observe(s);
    clone->observe(s);
    EXPECT_EQ(f->forecast(), clone->forecast()) << "after sample " << k;
  }
  // Diverge after cloning: the clone is independent state.
  f->observe(at(199, 1000.0));
  EXPECT_NE(f->forecast(), clone->forecast());
}

TEST_P(ForecasterSweep, ForecastWithinObservedRangeForPositiveSeries) {
  const auto f = make_forecaster(GetParam());
  Rng rng(11);
  double lo = 1e300, hi = -1e300;
  for (int k = 0; k < 50; ++k) {
    const double v = rng.uniform(1.0, 9.0);
    lo = std::min(lo, v);
    hi = std::max(hi, v);
    f->observe(at(k, v));
  }
  EXPECT_GE(f->forecast(), lo - 1e-9);
  EXPECT_LE(f->forecast(), hi + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(AllForecasters, ForecasterSweep,
                         ::testing::Values("last_value", "running_mean",
                                           "sliding_median", "ewma", "ar1",
                                           "meta"));

}  // namespace
}  // namespace grasp::perfmon
