// MonitorDaemon: periodic grid observation feeding the adaptation loop.
//
// During the execution phase GRASP "monitors periodically the grid
// conditions".  The daemon owns one CPU-load history and forecaster per
// watched node (plus root-to-node bandwidth), and is ticked by the skeleton
// engine whenever virtual (or real) time crosses a sampling period.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "perfmon/forecaster.hpp"
#include "perfmon/sensor.hpp"
#include "support/flat_map.hpp"
#include "support/ring_buffer.hpp"

namespace grasp::perfmon {

class MonitorDaemon {
 public:
  struct Params {
    Seconds period{1.0};          ///< sampling interval
    std::string forecaster = "ewma";
    std::size_t history = 64;     ///< retained samples per node
    NodeId root;                  ///< bandwidth is measured root <-> node
    double noise_relative = 0.0;  ///< sensor noise (see NoiseModel)
    double noise_absolute = 0.0;
    std::uint64_t noise_seed = 1;
  };

  MonitorDaemon(const gridsim::Grid& grid, std::vector<NodeId> watched,
                Params params);

  /// Advance to time `t`: takes every sample due in (last_tick, t].
  /// Call with monotonically non-decreasing t.
  void advance_to(Seconds t);

  /// Sampling period.
  [[nodiscard]] Seconds period() const { return params_.period; }

  /// Most recent observed CPU load of `node` (0 before any sample).
  [[nodiscard]] double last_load(NodeId node) const;

  /// Forecast CPU load of `node`.
  [[nodiscard]] double forecast_load(NodeId node) const;

  /// Most recent observed bandwidth root<->node in bytes/s.
  [[nodiscard]] double last_bandwidth(NodeId node) const;

  /// Forecast bandwidth root<->node.
  [[nodiscard]] double forecast_bandwidth(NodeId node) const;

  /// Full retained load history for `node` (oldest first).
  [[nodiscard]] std::vector<double> load_history(NodeId node) const;

  /// Mean observed CPU load of `node` over samples taken in [from, to].
  /// Falls back to the latest observation when the window holds no sample
  /// (e.g. the window is shorter than the sampling period).
  [[nodiscard]] double mean_load_between(NodeId node, Seconds from,
                                         Seconds to) const;

  /// Same windowed mean for the root<->node bandwidth.
  [[nodiscard]] double mean_bandwidth_between(NodeId node, Seconds from,
                                              Seconds to) const;

  [[nodiscard]] const std::vector<NodeId>& watched() const { return watched_; }
  [[nodiscard]] std::size_t samples_taken() const { return samples_taken_; }

  /// Replace the watched set (after a recalibration changed the pool).
  /// Histories of still-watched nodes are preserved.
  void rewatch(std::vector<NodeId> watched);

  /// Move the bandwidth-measurement root (farmer failover promoted a new
  /// coordinator).  Load histories are unaffected; bandwidth samples taken
  /// from here on measure the new root's links.
  void reroot(NodeId root);

  /// Attach a metrics registry (non-owning; must outlive the daemon): every
  /// sampling tick increments the `perfmon.monitor_samples` counter, so a
  /// shared registry sees monitor activity live instead of only in the
  /// end-of-run report.
  void attach_metrics(obs::MetricsRegistry* metrics) {
    metrics_ = metrics;
    if (metrics_ != nullptr)
      samples_counter_ = metrics_->counter("perfmon.monitor_samples");
  }

 private:
  struct PerNode {
    /// Resolved once (make_state, rewatch, reroot), not on every tick.
    const gridsim::NodeModel* model = nullptr;
    const gridsim::LinkModel* link = nullptr;  ///< root -> node; null: loopback
    RingBuffer<Sample> load_history;
    RingBuffer<Sample> bw_history;
    std::unique_ptr<Forecaster> load_forecast;
    std::unique_ptr<Forecaster> bw_forecast;
    double last_load = 0.0;
    double last_bw = 0.0;
    explicit PerNode(std::size_t history)
        : load_history(history), bw_history(history) {}
  };

  static double windowed_mean(const RingBuffer<Sample>& history,
                              Seconds from, Seconds to, double fallback);

  void sample_all(Seconds t);
  PerNode& state_for(NodeId node);
  [[nodiscard]] const PerNode& state_for(NodeId node) const;

  const gridsim::Grid* grid_;
  std::vector<NodeId> watched_;
  Params params_;
  CpuLoadSensor cpu_sensor_;
  BandwidthSensor bw_sensor_;
  [[nodiscard]] std::unique_ptr<PerNode> make_state(NodeId node) const;

  /// Dense per-node state: sample_all touches every watched node each
  /// period tick, so the lookup is a direct index, not a hash probe.
  NodeMap<std::unique_ptr<PerNode>> state_;
  Seconds last_tick_{0.0};
  std::size_t samples_taken_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::CounterHandle samples_counter_;
};

}  // namespace grasp::perfmon
