#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

namespace grasp::obs {
namespace {

TEST(Metrics, CountersAndGaugesRecordThroughHandles) {
  MetricsRegistry reg;
  const CounterHandle c = reg.counter("test.count");
  const GaugeHandle g = reg.gauge("test.level");
  EXPECT_TRUE(c.is_valid());
  EXPECT_TRUE(g.is_valid());
  reg.inc(c);
  reg.inc(c, 4);
  reg.set(g, 2.5);
  reg.add(g, 0.5);
  EXPECT_EQ(reg.counter_value(c), 5u);
  EXPECT_DOUBLE_EQ(reg.gauge_value(g), 3.0);
  reg.set_counter(c, 42);
  EXPECT_EQ(reg.counter_value(c), 42u);
}

TEST(Metrics, RegistrationIsIdempotentPerName) {
  MetricsRegistry reg;
  const CounterHandle a = reg.counter("same");
  const CounterHandle b = reg.counter("same");
  EXPECT_EQ(a.slot, b.slot);
  reg.inc(a);
  reg.inc(b);
  EXPECT_EQ(reg.counter_value(a), 2u);
  // Re-registering a histogram keeps the original spec.
  const HistogramHandle h1 = reg.histogram("h", {1.0, 2.0, 4});
  const HistogramHandle h2 = reg.histogram("h", {99.0, 3.0, 7});
  EXPECT_EQ(h1.slot, h2.slot);
  EXPECT_DOUBLE_EQ(reg.histogram_snapshot(h2).spec.first_bound, 1.0);
  EXPECT_EQ(reg.histogram_snapshot(h2).spec.bucket_count, 4u);
}

TEST(Metrics, HistogramBucketEdges) {
  MetricsRegistry reg;
  // Finite buckets: [<=1], (1,2], (2,4]; index 3 is the overflow (> 4).
  const HistogramHandle h = reg.histogram("edges", {1.0, 2.0, 3});
  reg.observe_always(h, -5.0);  // below range -> bucket 0
  reg.observe_always(h, 0.0);   // bucket 0
  reg.observe_always(h, 1.0);   // inclusive upper edge of bucket 0
  reg.observe_always(h, 1.0001);  // bucket 1
  reg.observe_always(h, 2.0);     // inclusive upper edge of bucket 1
  reg.observe_always(h, 4.0);     // last finite bucket
  reg.observe_always(h, 4.0001);  // overflow
  reg.observe_always(h, 1e12);    // overflow
  const HistogramSnapshot snap = reg.histogram_snapshot(h);
  ASSERT_EQ(snap.buckets.size(), 4u);
  EXPECT_EQ(snap.buckets[0], 3u);
  EXPECT_EQ(snap.buckets[1], 2u);
  EXPECT_EQ(snap.buckets[2], 1u);
  EXPECT_EQ(snap.buckets[3], 2u);
  EXPECT_EQ(snap.count, 8u);
  EXPECT_DOUBLE_EQ(snap.min, -5.0);
  EXPECT_DOUBLE_EQ(snap.max, 1e12);
}

TEST(Metrics, HistogramNonFiniteGoesToFirstBucket) {
  MetricsRegistry reg;
  const HistogramHandle h = reg.histogram("nan", {1.0, 2.0, 3});
  reg.observe_always(h, std::nan(""));
  const HistogramSnapshot snap = reg.histogram_snapshot(h);
  EXPECT_EQ(snap.buckets[0], 1u);
  EXPECT_EQ(snap.count, 1u);
}

TEST(Metrics, EmptyHistogramPercentilesAreZero) {
  MetricsRegistry reg;
  const HistogramHandle h = reg.histogram("empty");
  const HistogramSnapshot snap = reg.histogram_snapshot(h);
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.0);
  EXPECT_DOUBLE_EQ(snap.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(snap.percentile(0.99), 0.0);
}

TEST(Metrics, SingleSamplePercentilesAreExact) {
  MetricsRegistry reg;
  const HistogramHandle h = reg.histogram("one", {1e-3, 2.0, 48});
  reg.observe_always(h, 0.37);
  const HistogramSnapshot snap = reg.histogram_snapshot(h);
  // Clamping to [min, max] makes every percentile the sample itself.
  EXPECT_DOUBLE_EQ(snap.percentile(0.0), 0.37);
  EXPECT_DOUBLE_EQ(snap.percentile(0.5), 0.37);
  EXPECT_DOUBLE_EQ(snap.percentile(0.99), 0.37);
  EXPECT_DOUBLE_EQ(snap.mean(), 0.37);
}

TEST(Metrics, PercentilesAreMonotoneAndBracketed) {
  MetricsRegistry reg;
  const HistogramHandle h = reg.histogram("mono", {1e-3, 2.0, 48});
  for (int i = 1; i <= 1000; ++i)
    reg.observe_always(h, static_cast<double>(i) * 0.01);
  const HistogramSnapshot snap = reg.histogram_snapshot(h);
  double prev = snap.percentile(0.0);
  for (double p = 0.05; p <= 1.0; p += 0.05) {
    const double v = snap.percentile(p);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_GE(snap.percentile(0.0), snap.min);
  EXPECT_LE(snap.percentile(1.0), snap.max);
  // Log-scale buckets: the median of 0.01..10 must land within a bucket
  // (factor-2 resolution) of the true 5.0.
  EXPECT_GT(snap.percentile(0.5), 2.5);
  EXPECT_LT(snap.percentile(0.5), 10.0);
}

TEST(Metrics, DisabledGateSkipsObserveButNotCounters) {
  MetricsRegistry reg;
  reg.set_enabled(false);
  const CounterHandle c = reg.counter("c");
  const HistogramHandle h = reg.histogram("h");
  reg.inc(c);
  reg.observe(h, 1.0);
  EXPECT_EQ(reg.counter_value(c), 1u);  // counters are always live
  EXPECT_EQ(reg.histogram_snapshot(h).count, 0u);
  reg.observe_always(h, 1.0);  // bypass for tests
  EXPECT_EQ(reg.histogram_snapshot(h).count, 1u);
  reg.set_enabled(true);
  reg.observe(h, 2.0);
  EXPECT_EQ(reg.histogram_snapshot(h).count, 2u);
}

TEST(Metrics, SnapshotCarriesEveryRegisteredMetric) {
  MetricsRegistry reg;
  reg.inc(reg.counter("a.count"), 3);
  reg.set(reg.gauge("b.gauge"), 1.5);
  reg.observe_always(reg.histogram("c.hist"), 0.25);
  const MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "a.count");
  EXPECT_EQ(snap.counters[0].second, 3u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].first, "b.gauge");
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].name, "c.hist");
  EXPECT_EQ(snap.histograms[0].count, 1u);
}

// Handles are indices: ones taken before later registrations still
// address their own slots after the storage has grown.
TEST(Metrics, HandlesSurviveLaterRegistrations) {
  MetricsRegistry reg;
  const CounterHandle c = reg.counter("early.count");
  const GaugeHandle g = reg.gauge("early.gauge");
  const HistogramHandle h = reg.histogram("early.hist", {1.0, 2.0, 8});
  reg.inc(c);
  for (int i = 0; i < 50; ++i) {
    const std::string name = "other." + std::to_string(i);
    reg.inc(reg.counter(name), 100);
    reg.set(reg.gauge(name), 100.0);
    reg.observe_always(reg.histogram(name), 100.0);
  }
  reg.inc(c, 2);
  reg.add(g, 1.5);
  reg.add(g, 1.5);
  reg.observe_always(h, 3.0);
  reg.observe_always(h, 0.5);
  EXPECT_EQ(reg.counter_value(c), 3u);
  EXPECT_EQ(reg.gauge_value(g), 3.0);
  const HistogramSnapshot snap = reg.histogram_snapshot(h);
  EXPECT_EQ(snap.name, "early.hist");
  EXPECT_EQ(snap.count, 2u);
  EXPECT_EQ(snap.sum, 3.5);
  EXPECT_EQ(snap.min, 0.5);
  EXPECT_EQ(snap.max, 3.0);
  EXPECT_EQ(snap.buckets,
            (std::vector<std::uint64_t>{1, 0, 1, 0, 0, 0, 0, 0, 0}));
  EXPECT_EQ(reg.snapshot().counters.size(), 51u);
}

TEST(Metrics, SingleBucketHistogramPercentileBoundaries) {
  MetricsRegistry reg;
  // One finite bucket plus overflow: everything <= 10 piles into bucket 0.
  const HistogramHandle h = reg.histogram("coarse", {10.0, 2.0, 1});
  reg.observe_always(h, 2.0);
  reg.observe_always(h, 5.0);
  reg.observe_always(h, 8.0);
  const HistogramSnapshot snap = reg.histogram_snapshot(h);
  // p=1 is the exact observed max; every other percentile interpolates
  // inside the bucket but can never leave the observed [min, max].
  EXPECT_DOUBLE_EQ(snap.percentile(1.0), 8.0);
  const double p0 = snap.percentile(0.0);
  const double p50 = snap.percentile(0.5);
  EXPECT_GE(p0, 2.0);
  EXPECT_LE(p0, p50);
  EXPECT_LE(p50, 8.0);
  // A single-sample histogram reports that sample for every percentile:
  // min == max collapses the interpolation interval to a point.
  const HistogramHandle s = reg.histogram("single", {10.0, 2.0, 1});
  reg.observe_always(s, 7.0);
  const HistogramSnapshot one = reg.histogram_snapshot(s);
  EXPECT_DOUBLE_EQ(one.percentile(0.0), 7.0);
  EXPECT_DOUBLE_EQ(one.percentile(0.5), 7.0);
  EXPECT_DOUBLE_EQ(one.percentile(1.0), 7.0);
}

TEST(Metrics, DiffClampsCountersAndMatchesByName) {
  MetricsRegistry reg;
  const CounterHandle a = reg.counter("a");
  const GaugeHandle g = reg.gauge("g");
  const HistogramHandle h = reg.histogram("h", {1.0, 2.0, 4});
  reg.inc(a, 5);
  reg.set(g, 2.0);
  reg.observe_always(h, 0.5);
  const MetricsSnapshot before = reg.snapshot();

  reg.inc(a, 3);
  reg.set(g, 7.0);
  reg.observe_always(h, 3.0);
  const CounterHandle fresh = reg.counter("fresh");  // absent from `before`
  reg.inc(fresh, 2);
  MetricsSnapshot after = reg.snapshot();
  const MetricsSnapshot delta = after.diff(before);

  ASSERT_EQ(delta.counters.size(), 2u);
  EXPECT_EQ(delta.counters[0].first, "a");
  EXPECT_EQ(delta.counters[0].second, 3u);  // 8 - 5
  EXPECT_EQ(delta.counters[1].first, "fresh");
  EXPECT_EQ(delta.counters[1].second, 2u);  // passes through unchanged
  ASSERT_EQ(delta.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(delta.gauges[0].second, 5.0);  // 7 - 2
  ASSERT_EQ(delta.histograms.size(), 1u);
  EXPECT_EQ(delta.histograms[0].count, 1u);  // only the 3.0 observation
  EXPECT_DOUBLE_EQ(delta.histograms[0].sum, 3.0);

  // A rewound counter (set_counter below the baseline) clamps at zero
  // instead of wrapping to 2^64 - epsilon.
  reg.set_counter(a, 1);
  const MetricsSnapshot rewound = reg.snapshot().diff(before);
  EXPECT_EQ(rewound.counters[0].second, 0u);
}

// import_scoped into a prefix that already holds samples: counters and
// gauges take the source values, histograms accumulate.  Every double is
// compared bit for bit, so the merge order (destination first) is pinned.
TEST(Metrics, ImportScopedMergesIntoExistingPrefixBitForBit) {
  const auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  const double inf = std::numeric_limits<double>::infinity();
  MetricsRegistry reg;
  reg.inc(reg.counter("job.1.done"), 3);
  reg.set(reg.gauge("job.1.level"), 1.5);
  const HistogramHandle held = reg.histogram("job.1.wait_s", {1.0, 2.0, 4});
  reg.observe_always(held, 0.1);
  reg.observe_always(held, 0.2);
  reg.observe_always(reg.histogram("job.1.nan", {1.0, 2.0, 4}), 3.0);

  MetricsRegistry src;
  src.inc(src.counter("done"), 7);
  src.set(src.gauge("level"), 0.25);
  // A wider layout: the source's excess buckets collapse into overflow.
  const HistogramHandle wait = src.histogram("wait_s", {1.0, 2.0, 6});
  src.observe_always(wait, 0.3);
  src.observe_always(wait, 20.0);  // (16, 32]: beyond the held layout
  src.observe_always(wait, 40.0);  // the source's overflow
  src.observe_always(src.histogram("nan", {1.0, 2.0, 4}), std::nan(""));
  src.observe_always(src.histogram("fresh_s", {1.0, 2.0, 4}), 2.5);
  reg.import_scoped("job.1.", src.snapshot());

  const MetricsSnapshot view = filter_snapshot(reg.snapshot(), "job.1.");
  ASSERT_EQ(view.counters.size(), 1u);
  EXPECT_EQ(view.counters[0].second, 7u);  // set, not added
  ASSERT_EQ(view.gauges.size(), 1u);
  EXPECT_EQ(bits(view.gauges[0].second), bits(0.25));
  ASSERT_EQ(view.histograms.size(), 3u);

  const HistogramSnapshot& w = view.histograms[0];
  EXPECT_EQ(w.name, "wait_s");
  EXPECT_EQ(w.spec.bucket_count, 4u);  // the held layout wins
  EXPECT_EQ(w.count, 5u);
  EXPECT_EQ(bits(w.sum), bits((0.1 + 0.2) + ((0.3 + 20.0) + 40.0)));
  EXPECT_EQ(bits(w.min), bits(0.1));
  EXPECT_EQ(bits(w.max), bits(40.0));
  EXPECT_EQ(w.buckets, (std::vector<std::uint64_t>{3, 0, 0, 0, 2}));

  // A NaN-only source keeps the held extrema and poisons only the sum.
  const HistogramSnapshot& n = view.histograms[1];
  EXPECT_EQ(n.name, "nan");
  EXPECT_EQ(n.count, 2u);
  EXPECT_TRUE(std::isnan(n.sum));
  EXPECT_EQ(bits(n.min), bits(3.0));
  EXPECT_EQ(bits(n.max), bits(3.0));
  EXPECT_EQ(n.buckets, (std::vector<std::uint64_t>{1, 0, 1, 0, 0}));

  // A name new to the prefix arrives with the source's layout and values;
  // a NaN-only one arrives with the registry's untouched extrema.
  const HistogramSnapshot& f = view.histograms[2];
  EXPECT_EQ(f.name, "fresh_s");
  EXPECT_EQ(f.count, 1u);
  EXPECT_EQ(bits(f.sum), bits(2.5));
  EXPECT_EQ(bits(f.min), bits(2.5));
  EXPECT_EQ(bits(f.max), bits(2.5));
  EXPECT_EQ(f.buckets, (std::vector<std::uint64_t>{0, 0, 1, 0, 0}));
  reg.import_scoped("job.2.", filter_snapshot(src.snapshot(), "nan", false));
  const HistogramSnapshot only_nan = reg.snapshot().histograms.back();
  EXPECT_EQ(only_nan.name, "job.2.nan");
  EXPECT_EQ(only_nan.count, 1u);
  EXPECT_EQ(bits(only_nan.min), bits(inf));
  EXPECT_EQ(bits(only_nan.max), bits(-inf));
}

TEST(Metrics, MergeIntoAccumulatesAndWidensExtrema) {
  MetricsRegistry reg;
  const HistogramHandle h1 = reg.histogram("m1", {1.0, 2.0, 4});
  const HistogramHandle h2 = reg.histogram("m2", {1.0, 2.0, 4});
  reg.observe_always(h1, 0.5);
  reg.observe_always(h1, 3.0);
  reg.observe_always(h2, 100.0);  // overflow bucket
  HistogramSnapshot dst = reg.histogram_snapshot(h1);
  merge_into(dst, reg.histogram_snapshot(h2));
  EXPECT_EQ(dst.count, 3u);
  EXPECT_DOUBLE_EQ(dst.sum, 103.5);
  EXPECT_DOUBLE_EQ(dst.min, 0.5);
  EXPECT_DOUBLE_EQ(dst.max, 100.0);
  EXPECT_EQ(dst.buckets.back(), 1u);  // the overflow observation survived
}

TEST(Metrics, RollupHistogramsMergesAcrossScopes) {
  MetricsRegistry reg;
  reg.observe_always(reg.histogram("shard.0.wait_s", {1.0, 2.0, 4}), 0.5);
  reg.observe_always(reg.histogram("shard.1.wait_s", {1.0, 2.0, 4}), 2.0);
  reg.observe_always(reg.histogram("shard.1.busy_s", {1.0, 2.0, 4}), 1.0);
  reg.observe_always(reg.histogram("unscoped_s", {1.0, 2.0, 4}), 9.0);
  const std::vector<HistogramSnapshot> rolled =
      rollup_histograms(reg.snapshot(), "shard");
  ASSERT_EQ(rolled.size(), 2u);  // wait_s + busy_s; unscoped ignored
  EXPECT_EQ(rolled[0].name, "wait_s");
  EXPECT_EQ(rolled[0].count, 2u);  // shard.0 + shard.1 merged
  EXPECT_DOUBLE_EQ(rolled[0].min, 0.5);
  EXPECT_DOUBLE_EQ(rolled[0].max, 2.0);
  EXPECT_EQ(rolled[1].name, "busy_s");
  EXPECT_EQ(rolled[1].count, 1u);
  // The other scope label finds nothing.
  EXPECT_TRUE(rollup_histograms(reg.snapshot(), "job").empty());
}

}  // namespace
}  // namespace grasp::obs
