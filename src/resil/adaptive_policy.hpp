// Statistics primitives behind adaptive detection & dispatch economics.
//
// The fixed-knob resilience machinery (one detector timeout for every node,
// one straggler factor, one tail-steal margin) treats the pool as uniform.
// It is not: per-node heartbeat cadence and service-time distributions are
// cheap to maintain online and turn every speculative decision — suspect a
// silent node, duplicate a late chunk, evict a crawling worker — into an
// explicit expected-savings-vs-expected-waste test.  This header holds the
// estimators those policies share:
//
//   * WelfordEstimator — O(1) running mean/variance.  The failure
//     detector's accrual mode keeps one per node over heartbeat
//     inter-arrival times.
//   * QuantileTracker — O(1) record / O(buckets) query streaming quantiles
//     over a fixed log-scale histogram (same bucketing idea as the obs
//     metrics histograms, but a plain value type the engines can keep per
//     node in a NodeMap).
//   * CostModel — per-node service-time (seconds-per-Mop) quantiles with a
//     pool-wide fallback for thinly-sampled nodes.  Feeds the farm's
//     economic reissue rule and checkpoint-vs-redo eviction break-even.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "support/flat_map.hpp"
#include "support/ids.hpp"

namespace grasp::resil {

/// O(1) running mean/variance (Welford's online algorithm).
class WelfordEstimator {
 public:
  void add(double x) {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  [[nodiscard]] std::size_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ > 0 ? mean_ : 0.0; }
  /// Population variance; 0 until two samples exist.
  [[nodiscard]] double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0;
  }
  [[nodiscard]] double stddev() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Streaming quantile estimate over positive values: a fixed log-scale
/// histogram (64 geometric buckets spanning ~1e-6 .. ~1e3).  Records are
/// O(1); quantile queries walk the bucket array and return the geometric
/// midpoint of the bucket where the cumulative count crosses q * total.
/// Plain value type (copyable, no registration) so engines can keep one
/// per node in a NodeMap.
class QuantileTracker {
 public:
  void record(double v);
  /// The q-quantile (q in [0, 1]); 0.0 while no samples exist.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] std::size_t count() const { return total_; }

 private:
  static constexpr std::size_t kBuckets = 64;
  static constexpr double kLo = 1e-6;  ///< lower edge of bucket 0
  /// Geometric bucket ratio: 64 buckets of x1.4 cover ~9 decades, ample
  /// for seconds-per-Mop values, with ~±18% bucket resolution.
  static constexpr double kRatio = 1.4;

  [[nodiscard]] static std::size_t bucket_of(double v);
  [[nodiscard]] static double bucket_mid(std::size_t b);

  std::array<std::uint32_t, kBuckets> counts_{};
  std::size_t total_ = 0;
};

/// Per-node service-time cost model: seconds-per-Mop quantiles per node,
/// plus the pooled distribution as fallback for nodes with few samples.
class CostModel {
 public:
  void record(NodeId node, double spm);

  /// Node's q-quantile spm.  Nodes with fewer than `min_samples` of their
  /// own fall back to the pool-wide distribution; before any sample at all
  /// exists the caller's `fallback` estimate is returned.
  [[nodiscard]] double node_spm_quantile(NodeId node, double q,
                                         std::size_t min_samples,
                                         double fallback) const;
  /// Pool-wide q-quantile spm (fallback when empty).
  [[nodiscard]] double pool_spm_quantile(double q, double fallback) const;

  [[nodiscard]] std::size_t node_samples(NodeId node) const {
    return per_node_.at_or_default(node).count();
  }
  [[nodiscard]] std::size_t pool_samples() const { return pool_.count(); }

 private:
  NodeMap<QuantileTracker> per_node_;
  QuantileTracker pool_;
};

}  // namespace grasp::resil
