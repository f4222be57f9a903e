#include "perfmon/sensor.hpp"

#include <stdexcept>

namespace grasp::perfmon {

NoiseModel::NoiseModel(double relative_stddev, double absolute_stddev,
                       std::uint64_t seed)
    : relative_stddev_(relative_stddev),
      absolute_stddev_(absolute_stddev),
      rng_(seed) {
  if (relative_stddev < 0.0 || absolute_stddev < 0.0)
    throw std::invalid_argument("NoiseModel: negative stddev");
}

NoiseModel NoiseModel::none() { return NoiseModel(0.0, 0.0, 0); }

CpuLoadSensor::CpuLoadSensor(const gridsim::Grid& grid, NoiseModel noise)
    : grid_(&grid), noise_(noise) {}

BandwidthSensor::BandwidthSensor(const gridsim::Grid& grid, NoiseModel noise)
    : grid_(&grid), noise_(noise) {}

const gridsim::LinkModel* BandwidthSensor::link(NodeId from,
                                                NodeId to) const {
  if (from == to) return nullptr;
  return &grid_->topology().link(grid_->node(from).site(),
                                 grid_->node(to).site());
}

}  // namespace grasp::perfmon
