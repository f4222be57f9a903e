// Resource sensors: how GRASP observes the grid.
//
// The paper assumes an NWS-style monitoring library reporting processor
// load and bandwidth utilisation.  Our sensors sample the simulator's
// ground truth through a configurable noise model, so experiments can study
// calibration quality as observation fidelity degrades (perfect sensors are
// noise_stddev = 0).
//
// Each sensor has one sampling path, over an already-resolved NodeModel or
// LinkModel; the NodeId overloads resolve and delegate to it.  A periodic
// caller (MonitorDaemon) resolves once and samples the models directly.
#pragma once

#include <algorithm>
#include <cstdint>

#include "gridsim/grid.hpp"
#include "support/ids.hpp"
#include "support/rng.hpp"

namespace grasp::perfmon {

/// One timestamped observation.
struct Sample {
  Seconds at;
  double value = 0.0;
};

/// Observation noise: value' = max(0, value * (1 + eps_rel) + eps_abs) with
/// both terms Gaussian.  Deterministic per seed.
class NoiseModel {
 public:
  NoiseModel(double relative_stddev, double absolute_stddev,
             std::uint64_t seed);

  /// Perfect observation (no noise).
  static NoiseModel none();

  [[nodiscard]] double perturb(double value) {
    double out = value;
    if (relative_stddev_ > 0.0)
      out *= 1.0 + rng_.normal(0.0, relative_stddev_);
    if (absolute_stddev_ > 0.0) out += rng_.normal(0.0, absolute_stddev_);
    return std::max(0.0, out);
  }

 private:
  double relative_stddev_;
  double absolute_stddev_;
  Rng rng_;
};

/// Samples the external CPU load of grid nodes.
class CpuLoadSensor {
 public:
  CpuLoadSensor(const gridsim::Grid& grid, NoiseModel noise);

  [[nodiscard]] Sample sample(NodeId node, Seconds t) {
    return sample(grid_->node(node), t);
  }
  [[nodiscard]] Sample sample(const gridsim::NodeModel& node, Seconds t) {
    return Sample{t, noise_.perturb(node.load_at(t))};
  }

 private:
  const gridsim::Grid* grid_;
  NoiseModel noise_;
};

/// Samples the effective bandwidth (bytes/s) between two nodes.  For a node
/// paired with itself the loopback is reported as a large constant.
class BandwidthSensor {
 public:
  /// Bytes/s reported for loopback; never perturbed (no noise draw).
  static constexpr double kLoopbackBandwidth = 1e12;

  BandwidthSensor(const gridsim::Grid& grid, NoiseModel noise);

  /// The link carrying from -> to traffic; nullptr for loopback.
  [[nodiscard]] const gridsim::LinkModel* link(NodeId from, NodeId to) const;

  [[nodiscard]] Sample sample(NodeId from, NodeId to, Seconds t) {
    return sample(link(from, to), t);
  }
  /// `link` as resolved by link(); nullptr samples the loopback.
  [[nodiscard]] Sample sample(const gridsim::LinkModel* link, Seconds t) {
    if (link == nullptr) return Sample{t, kLoopbackBandwidth};
    return Sample{t, noise_.perturb(link->effective_bandwidth(t).value)};
  }

 private:
  const gridsim::Grid* grid_;
  NoiseModel noise_;
};

}  // namespace grasp::perfmon
