#include "perfmon/monitor.hpp"

#include <cmath>
#include <stdexcept>

namespace grasp::perfmon {

MonitorDaemon::MonitorDaemon(const gridsim::Grid& grid,
                             std::vector<NodeId> watched, Params params)
    : grid_(&grid),
      watched_(std::move(watched)),
      params_(std::move(params)),
      cpu_sensor_(grid, NoiseModel(params_.noise_relative,
                                   params_.noise_absolute,
                                   params_.noise_seed)),
      bw_sensor_(grid, NoiseModel(params_.noise_relative,
                                  params_.noise_absolute,
                                  params_.noise_seed ^ 0x9e3779b9ULL)) {
  if (params_.period.value <= 0.0)
    throw std::invalid_argument("MonitorDaemon: period must be positive");
  if (!params_.root.is_valid() && !watched_.empty()) params_.root = watched_.front();
  for (const NodeId n : watched_) state_[n] = make_state(n);
}

std::unique_ptr<MonitorDaemon::PerNode> MonitorDaemon::make_state(
    NodeId node) const {
  auto per = std::make_unique<PerNode>(params_.history);
  per->model = &grid_->node(node);
  per->link = bw_sensor_.link(params_.root, node);
  per->load_forecast = make_forecaster(params_.forecaster);
  per->bw_forecast = make_forecaster(params_.forecaster);
  return per;
}

void MonitorDaemon::advance_to(Seconds t) {
  if (t < last_tick_) return;  // time never runs backwards; ignore stale calls
  // Take every sample due strictly after the last tick, on the period grid.
  const double period = params_.period.value;
  double next = (std::floor(last_tick_.value / period) + 1.0) * period;
  while (next <= t.value) {
    sample_all(Seconds{next});
    next += period;
  }
  last_tick_ = t;
}

void MonitorDaemon::sample_all(Seconds t) {
  for (const NodeId node : watched_) {
    PerNode& per = *state_[node];
    const Sample load = cpu_sensor_.sample(*per.model, t);
    per.load_history.push(load);
    per.load_forecast->observe(load);
    per.last_load = load.value;
    const Sample bw = bw_sensor_.sample(per.link, t);
    per.bw_history.push(bw);
    per.bw_forecast->observe(bw);
    per.last_bw = bw.value;
  }
  ++samples_taken_;
  if (metrics_ != nullptr) metrics_->inc(samples_counter_);
}

MonitorDaemon::PerNode& MonitorDaemon::state_for(NodeId node) {
  const std::unique_ptr<PerNode>& per = state_.at_or_default(node);
  if (!per) throw std::out_of_range("MonitorDaemon: node not watched");
  return *per;
}

const MonitorDaemon::PerNode& MonitorDaemon::state_for(NodeId node) const {
  const std::unique_ptr<PerNode>& per = state_.at_or_default(node);
  if (!per) throw std::out_of_range("MonitorDaemon: node not watched");
  return *per;
}

double MonitorDaemon::last_load(NodeId node) const {
  return state_for(node).last_load;
}

double MonitorDaemon::forecast_load(NodeId node) const {
  return state_for(node).load_forecast->forecast();
}

double MonitorDaemon::last_bandwidth(NodeId node) const {
  return state_for(node).last_bw;
}

double MonitorDaemon::forecast_bandwidth(NodeId node) const {
  return state_for(node).bw_forecast->forecast();
}

std::vector<double> MonitorDaemon::load_history(NodeId node) const {
  const auto samples = state_for(node).load_history.to_vector();
  std::vector<double> values;
  values.reserve(samples.size());
  for (const auto& s : samples) values.push_back(s.value);
  return values;
}

double MonitorDaemon::windowed_mean(const RingBuffer<Sample>& history,
                                    Seconds from, Seconds to,
                                    double fallback) {
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < history.size(); ++i) {
    const Sample& s = history[i];
    if (s.at < from || s.at > to) continue;
    sum += s.value;
    ++count;
  }
  if (count == 0) return fallback;
  return sum / static_cast<double>(count);
}

double MonitorDaemon::mean_load_between(NodeId node, Seconds from,
                                        Seconds to) const {
  const PerNode& per = state_for(node);
  return windowed_mean(per.load_history, from, to, per.last_load);
}

double MonitorDaemon::mean_bandwidth_between(NodeId node, Seconds from,
                                             Seconds to) const {
  const PerNode& per = state_for(node);
  return windowed_mean(per.bw_history, from, to, per.last_bw);
}

void MonitorDaemon::rewatch(std::vector<NodeId> watched) {
  NodeMap<std::unique_ptr<PerNode>> kept;
  for (const NodeId n : watched) {
    std::unique_ptr<PerNode>& old = state_[n];
    kept[n] = old ? std::move(old) : make_state(n);
  }
  state_ = std::move(kept);
  watched_ = std::move(watched);
}

void MonitorDaemon::reroot(NodeId root) {
  params_.root = root;
  for (const NodeId n : watched_) state_[n]->link = bw_sensor_.link(root, n);
}

}  // namespace grasp::perfmon
