// Metrics registry: named counters, gauges and log-scale histograms.
//
// Engines resolve names to dense slot handles once, at registration; the
// hot path is then an index into the slot vector — no string hashing, no
// map lookup.  Registration is idempotent per name (re-registering returns
// the existing slot), which lets a component re-register its metric block
// on every run against a shared registry and keep accumulating into the
// same slots.  Handles are indices, so they survive later registrations.
//
// Two tiers of recording:
//   * counters and gauges are ALWAYS live.  They are the engine's
//     authoritative accounting — `ResilienceReport` and `RunSummary` are
//     snapshots read out of this registry, so these cannot be optional.
//   * histograms honour the registry-wide `enabled` flag (one load and
//     branch when disabled).  This is the "detail" tier benchmarked by
//     bench_micro M6: the disabled path must stay within noise of no
//     telemetry at all.
//
// Single-threaded, like all of Telemetry: see obs/telemetry.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

namespace grasp::obs {

struct CounterHandle {
  std::uint32_t slot = std::numeric_limits<std::uint32_t>::max();
  [[nodiscard]] bool is_valid() const {
    return slot != std::numeric_limits<std::uint32_t>::max();
  }
};

struct GaugeHandle {
  std::uint32_t slot = std::numeric_limits<std::uint32_t>::max();
  [[nodiscard]] bool is_valid() const {
    return slot != std::numeric_limits<std::uint32_t>::max();
  }
};

struct HistogramHandle {
  std::uint32_t slot = std::numeric_limits<std::uint32_t>::max();
  [[nodiscard]] bool is_valid() const {
    return slot != std::numeric_limits<std::uint32_t>::max();
  }
};

/// Geometric bucket layout.  Bucket 0 holds values in (-inf, first_bound];
/// bucket i holds (first_bound * growth^(i-1), first_bound * growth^i];
/// one extra overflow bucket catches everything beyond the last bound.
struct HistogramSpec {
  double first_bound = 1e-6;
  double growth = 2.0;
  std::size_t bucket_count = 64;  ///< finite buckets (overflow is extra)
};

/// Point-in-time copy of one histogram, with the percentile math attached.
struct HistogramSnapshot {
  std::string name;
  HistogramSpec spec;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<std::uint64_t> buckets;  ///< bucket_count + 1 (overflow last)

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Inclusive lower edge of bucket `i` (0 for the first bucket).
  [[nodiscard]] double lower_bound(std::size_t i) const;
  /// Upper edge of bucket `i`; +inf for the overflow bucket.
  [[nodiscard]] double upper_bound(std::size_t i) const;
  /// Interpolated percentile, `p` in [0, 1].  Empty histograms return 0;
  /// results are clamped to the observed [min, max], which makes the
  /// single-sample case exact.
  [[nodiscard]] double percentile(double p) const;
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// Per-run delta: this snapshot minus `base`, matched by name.  Names
  /// absent from `base` pass through unchanged; names only in `base` are
  /// dropped (they recorded nothing this run).  Counters clamp at 0 so a
  /// `set_counter` rewind can never underflow.  Histogram deltas subtract
  /// count/sum/buckets bucket-wise (layouts must match — same name, same
  /// spec — which registry-produced snapshots guarantee) and keep this
  /// snapshot's min/max: the registry only tracks run-global extrema, so
  /// the delta's extrema are exact when `base` was empty and conservative
  /// otherwise.  This is the one subtraction the engines build their
  /// per-run reports from (see resil::from_snapshot).
  [[nodiscard]] MetricsSnapshot diff(const MetricsSnapshot& base) const;
};

/// Merge `src` into `dst`: bucket-wise add, excess source buckets collapse
/// into `dst`'s overflow bucket, count and sum accumulate, min/max widen.
/// The one merge rule: MetricsRegistry::import_scoped uses it too.
void merge_into(HistogramSnapshot& dst, const HistogramSnapshot& src);

/// Roll scoped histograms up across their scopes: every histogram named
/// `<scope>.<k>.<rest>` for the given scope label ("shard" / "job")
/// merges into one rollup named `<rest>`, so per-shard or per-job service
/// time distributions can be read as a single population.  Unscoped
/// histograms are ignored; rollups come back in first-seen order.
[[nodiscard]] std::vector<HistogramSnapshot> rollup_histograms(
    const MetricsSnapshot& snap, std::string_view scope);

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // ------------------------------------------------------- registration
  CounterHandle counter(std::string_view name);
  GaugeHandle gauge(std::string_view name);
  /// Re-registering an existing name keeps the original spec.
  HistogramHandle histogram(std::string_view name, HistogramSpec spec = {});

  // ---------------------------------------------------------- recording
  void inc(CounterHandle h, std::uint64_t n = 1) {
    counters_[h.slot].second += n;
  }
  /// Overwrite a counter (used to import a component's own end-of-run
  /// total, e.g. the ChunkLedger's checkpoint count).
  void set_counter(CounterHandle h, std::uint64_t v) {
    counters_[h.slot].second = v;
  }
  void set(GaugeHandle h, double v) { gauges_[h.slot].second = v; }
  void add(GaugeHandle h, double v) { gauges_[h.slot].second += v; }
  void observe(HistogramHandle h, double v) {
    if (enabled_) observe_always(h, v);
  }
  /// Histogram recording that bypasses the enabled gate (tests).
  void observe_always(HistogramHandle h, double v);

  /// Import a whole snapshot under `prefix` (e.g. "job.3."): counters and
  /// gauges are set to the source values, histograms merged via
  /// merge_into, bypassing the enabled gate (the data was recorded
  /// elsewhere; this is an import, not a new observation).  This is how
  /// the service layer publishes each retired job's private registry into
  /// the shared one — read back with filter_snapshot for a per-job view.
  void import_scoped(std::string_view prefix, const MetricsSnapshot& snap);

  /// Gate for the detail tier (histograms; span recording mirrors it in
  /// SpanRecorder).  Counters and gauges ignore this.
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  // ------------------------------------------------------------ reading
  [[nodiscard]] std::uint64_t counter_value(CounterHandle h) const {
    return counters_[h.slot].second;
  }
  [[nodiscard]] double gauge_value(GaugeHandle h) const {
    return gauges_[h.slot].second;
  }
  [[nodiscard]] HistogramSnapshot histogram_snapshot(HistogramHandle h) const;
  [[nodiscard]] MetricsSnapshot snapshot() const;

 private:
  std::vector<std::pair<std::string, std::uint64_t>> counters_;
  std::vector<std::pair<std::string, double>> gauges_;
  /// A slot is its own snapshot, except that an empty one holds min +inf
  /// and max -inf (reads report 0 for both).
  std::vector<HistogramSnapshot> histograms_;
  bool enabled_ = true;
};

/// The sub-snapshot whose metric names start with `prefix` — the per-job
/// registry view over a shared service registry.  `strip` removes the
/// prefix from the returned names, so the view reads like the job's own
/// private registry.
[[nodiscard]] MetricsSnapshot filter_snapshot(const MetricsSnapshot& snap,
                                              std::string_view prefix,
                                              bool strip = true);

}  // namespace grasp::obs
