#include "perfmon/monitor.hpp"

#include <algorithm>
#include <stdexcept>

namespace grasp::perfmon {

namespace {

/// Tick k sits at k * period, from its integer index: repeated addition
/// would drift, and differently for each pattern of advance_to calls.
Seconds tick_time(std::uint64_t k, Seconds period) {
  return Seconds{static_cast<double>(k) * period.value};
}

/// The number of ticks in (0, t]: the largest k with tick_time(k) <= t.
std::uint64_t ticks_due(Seconds t, Seconds period) {
  if (!(t >= period)) return 0;
  auto k = static_cast<std::uint64_t>(t.value / period.value);
  while (k > 0 && tick_time(k, period) > t) --k;
  while (tick_time(k + 1, period) <= t) ++k;
  return k;
}

}  // namespace

void SampleStream::copy_from(const SampleStream& other) {
  history = other.history;
  forecast = other.forecast->clone();
  last = other.last;
  ticks = other.ticks;
}

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
  if (params_.sample_table != nullptr &&
      params_.sample_table->matches(grid, params_))
    table_ = params_.sample_table;
}

std::unique_ptr<MonitorDaemon::PerNode> MonitorDaemon::make_state(
    NodeId node) const {
  auto per = std::make_unique<PerNode>(params_.history, params_.forecaster);
  per->model = &grid_->node(node);
  per->link = bw_sensor_.link(params_.root, node);
  return per;
}

void MonitorDaemon::advance_to(Seconds t) {
  if (table_ != nullptr) {
    // The first ticks this daemon takes: copy them from the shared table
    // when it can still serve them, else take them below as ever.
    const std::uint64_t due = ticks_due(t, params_.period);
    if (due == 0) return;
    if (table_->serves(due)) adopt(due);
    table_ = nullptr;
  }
  for (Seconds next = tick_time(next_tick_, params_.period); next <= t;
       next = tick_time(next_tick_, params_.period)) {
    sample_all(next);
    ++next_tick_;
  }
}

void MonitorDaemon::adopt(std::uint64_t ticks) {
  for (const NodeId node : watched_) {
    PerNode& per = *state_[node];
    per.load.copy_from(table_->load(node, ticks));
    per.bw.copy_from(table_->bandwidth(per.link, ticks));
  }
  next_tick_ = ticks + 1;
  samples_taken_ += ticks;
  if (metrics_ != nullptr) metrics_->inc(samples_counter_, ticks);
}

void MonitorDaemon::sample_all(Seconds t) {
  for (const NodeId node : watched_) {
    PerNode& per = *state_[node];
    per.load.fold(cpu_sensor_.sample(*per.model, t));
    per.bw.fold(bw_sensor_.sample(per.link, t));
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
  return state_for(node).load.last;
}

double MonitorDaemon::forecast_load(NodeId node) const {
  return state_for(node).load.forecast->forecast();
}

double MonitorDaemon::last_bandwidth(NodeId node) const {
  return state_for(node).bw.last;
}

double MonitorDaemon::forecast_bandwidth(NodeId node) const {
  return state_for(node).bw.forecast->forecast();
}

std::vector<double> MonitorDaemon::load_history(NodeId node) const {
  const auto samples = state_for(node).load.history.to_vector();
  std::vector<double> values;
  values.reserve(samples.size());
  for (const auto& s : samples) values.push_back(s.value);
  return values;
}

double MonitorDaemon::windowed_mean(const SampleStream& stream, Seconds from,
                                    Seconds to) {
  const RingBuffer<Sample>& history = stream.history;
  double sum = 0.0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < history.size(); ++i) {
    const Sample& s = history[i];
    if (s.at < from || s.at > to) continue;
    sum += s.value;
    ++count;
  }
  if (count == 0) return stream.last;
  return sum / static_cast<double>(count);
}

double MonitorDaemon::mean_load_between(NodeId node, Seconds from,
                                        Seconds to) const {
  return windowed_mean(state_for(node).load, from, to);
}

double MonitorDaemon::mean_bandwidth_between(NodeId node, Seconds from,
                                             Seconds to) const {
  return windowed_mean(state_for(node).bw, from, to);
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

// ------------------------------------------------------------ SampleTable

SampleTable::SampleTable(const gridsim::Grid& grid,
                         const MonitorDaemon::Params& params)
    : grid_(&grid),
      period_(params.period),
      forecaster_(params.forecaster),
      history_(params.history),
      cpu_sensor_(grid, NoiseModel::none()),
      bw_sensor_(grid, NoiseModel::none()) {
  if (period_.value <= 0.0)
    throw std::invalid_argument("SampleTable: period must be positive");
  // Reject an unknown forecaster or an empty history now.
  (void)SampleStream(history_, forecaster_);
}

bool SampleTable::matches(const gridsim::Grid& grid,
                          const MonitorDaemon::Params& params) const {
  return &grid == grid_ && params.noise_relative == 0.0 &&
         params.noise_absolute == 0.0 && params.period == period_ &&
         params.forecaster == forecaster_ && params.history == history_;
}

template <typename SampleAt>
const SampleStream& SampleTable::fold_to(
    std::unique_ptr<SampleStream>& stream, std::uint64_t ticks,
    SampleAt sample) {
  if (!stream) stream = std::make_unique<SampleStream>(history_, forecaster_);
  for (; stream->ticks < ticks; ++folded_)
    stream->fold(sample(tick_time(stream->ticks + 1, period_)));
  horizon_ = std::max(horizon_, ticks);
  return *stream;
}

const SampleStream& SampleTable::load(NodeId node, std::uint64_t ticks) {
  const gridsim::NodeModel& model = grid_->node(node);
  return fold_to(load_[node], ticks,
                 [&](Seconds t) { return cpu_sensor_.sample(model, t); });
}

const SampleStream& SampleTable::bandwidth(const gridsim::LinkModel* link,
                                           std::uint64_t ticks) {
  return fold_to(bandwidth_[link], ticks,
                 [&](Seconds t) { return bw_sensor_.sample(link, t); });
}

}  // namespace grasp::perfmon
