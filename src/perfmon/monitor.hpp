// MonitorDaemon: periodic grid observation feeding the adaptation loop.
//
// During the execution phase GRASP "monitors periodically the grid
// conditions".  The daemon owns one CPU-load history and forecaster per
// watched node (plus root-to-node bandwidth), and is ticked by the skeleton
// engine whenever virtual (or real) time crosses a sampling period.  Tick k
// sits at k * period, computed from its integer index, so the samples a
// daemon takes do not depend on how often the engine calls advance_to.
//
// A daemon watches from virtual time 0: its first advance_to(t) takes every
// tick in (0, t], however late the engine started.  SampleTable lets many
// daemons over one grid share that back-fill.  It folds each noise-free
// source (a node's load, a link's bandwidth, the loopback) once per tick,
// and a daemon that has never ticked copies its per-node state from it
// instead of replaying the ticks itself.  Every value the daemon reports
// stays bit-identical to the private replay; GridService owns one table
// and hands it to every tenant.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "perfmon/forecaster.hpp"
#include "perfmon/sensor.hpp"
#include "support/flat_map.hpp"
#include "support/ring_buffer.hpp"

namespace grasp::perfmon {

class SampleTable;

/// One observed quantity (a node's load, a link's bandwidth): the ring of
/// its last samples, its forecaster and its latest value.
struct SampleStream {
  RingBuffer<Sample> history;
  std::unique_ptr<Forecaster> forecast;
  double last = 0.0;
  std::uint64_t ticks = 0;  ///< samples folded in

  SampleStream(std::size_t capacity, const std::string& forecaster)
      : history(capacity), forecast(make_forecaster(forecaster)) {}
  void fold(Sample s) {
    history.push(s);
    forecast->observe(s);
    last = s.value;
    ++ticks;
  }
  /// Become a deep copy of `other` (its forecaster is cloned).
  void copy_from(const SampleStream& other);
};

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
    /// Shared noise-free sample table (non-owning; null = none).  Used
    /// only by a noise-free daemon over the table's grid whose period,
    /// forecaster and history match the table's, and only for the ticks
    /// due at its first sampling advance_to; later ticks it takes itself.
    SampleTable* sample_table = nullptr;
  };

  MonitorDaemon(const gridsim::Grid& grid, std::vector<NodeId> watched,
                Params params);

  /// Advance to time `t`: takes every tick k not yet taken with
  /// k * period <= t.  A call with an earlier t takes nothing.
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
    SampleStream load;
    SampleStream bw;
    PerNode(std::size_t history, const std::string& forecaster)
        : load(history, forecaster), bw(history, forecaster) {}
  };

  static double windowed_mean(const SampleStream& stream, Seconds from,
                              Seconds to);

  void sample_all(Seconds t);
  /// Copy every watched node's state at tick `ticks` from table_.
  void adopt(std::uint64_t ticks);
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
  /// Index of the first tick not yet taken (tick k sits at k * period).
  std::uint64_t next_tick_ = 1;
  /// params_.sample_table when this daemon may adopt from it, else null.
  SampleTable* table_ = nullptr;
  std::size_t samples_taken_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::CounterHandle samples_counter_;
};

/// The noise-free monitor samples of one grid: a SampleStream per node's
/// load, per link's bandwidth (links are per site pair, so nodes on one
/// site share one) and for the loopback, each folded from tick 1 on
/// demand, once per tick.  Streams only move forward, so the table serves
/// a daemon only at or past the highest tick it has served (virtual time
/// is monotone within one service).  The grid's load and link models must
/// not change while it is in use.  Not synchronized.
class SampleTable {
 public:
  /// Only period, forecaster and history are read from `params`.
  SampleTable(const gridsim::Grid& grid, const MonitorDaemon::Params& params);

  /// True when a daemon over `grid` with `params` sees exactly the
  /// table's samples: noise-free sensors, same period, forecaster and
  /// history.
  [[nodiscard]] bool matches(const gridsim::Grid& grid,
                             const MonitorDaemon::Params& params) const;

  /// (source, tick) pairs folded so far, for tests: each is folded once.
  [[nodiscard]] std::size_t samples_folded() const { return folded_; }

 private:
  friend class MonitorDaemon;

  /// Whether every stream can still be read at tick `ticks`.
  [[nodiscard]] bool serves(std::uint64_t ticks) const {
    return ticks >= horizon_;
  }
  /// The stream of `node`'s load / of `link`'s bandwidth (null: the
  /// loopback), folded up to tick `ticks`.  Precondition: serves(ticks).
  const SampleStream& load(NodeId node, std::uint64_t ticks);
  const SampleStream& bandwidth(const gridsim::LinkModel* link,
                                std::uint64_t ticks);
  /// Fold `stream` up to tick `ticks`, sampling tick k with `sample(t_k)`.
  template <typename SampleAt>
  const SampleStream& fold_to(std::unique_ptr<SampleStream>& stream,
                              std::uint64_t ticks, SampleAt sample);

  const gridsim::Grid* grid_;
  Seconds period_;
  std::string forecaster_;
  std::size_t history_;
  CpuLoadSensor cpu_sensor_;
  BandwidthSensor bw_sensor_;
  NodeMap<std::unique_ptr<SampleStream>> load_;
  std::unordered_map<const gridsim::LinkModel*,
                     std::unique_ptr<SampleStream>>
      bandwidth_;
  std::uint64_t horizon_ = 0;  ///< highest tick served so far
  std::size_t folded_ = 0;
};

}  // namespace grasp::perfmon
