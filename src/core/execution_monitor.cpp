#include "core/execution_monitor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "support/log.hpp"

namespace grasp::core {

const char* to_string(ThresholdPolicy::Kind kind) {
  switch (kind) {
    case ThresholdPolicy::Kind::AbsoluteMin: return "absolute_min";
    case ThresholdPolicy::Kind::RelativeMin: return "relative_min";
    case ThresholdPolicy::Kind::RelativeMean: return "relative_mean";
    case ThresholdPolicy::Kind::RelativeMax: return "relative_max";
  }
  return "unknown";
}

const char* to_string(MonitorVerdict verdict) {
  switch (verdict) {
    case MonitorVerdict::None: return "none";
    case MonitorVerdict::ThresholdExceeded: return "threshold_exceeded";
    case MonitorVerdict::RoundStale: return "round_stale";
  }
  return "unknown";
}

ExecutionMonitor::ExecutionMonitor(SkeletonTraits traits,
                                   ThresholdPolicy policy)
    : traits_(std::move(traits)),
      policy_(policy),
      round_times_(std::numeric_limits<double>::quiet_NaN()),
      latest_(std::numeric_limits<double>::quiet_NaN()) {
  if (policy_.z <= 0.0)
    throw std::invalid_argument("ExecutionMonitor: threshold must be positive");
}

void ExecutionMonitor::arm(double baseline_spm,
                           const std::vector<NodeId>& chosen, Seconds now) {
  if (chosen.empty())
    throw std::invalid_argument("ExecutionMonitor: empty chosen set");
  baseline_spm_ = baseline_spm;
  for (const NodeId n : chosen_) is_chosen_[n] = 0;
  chosen_ = chosen;
  distinct_chosen_ = 0;
  for (const NodeId n : chosen_) {
    char& flag = is_chosen_[n];
    if (flag == 0) ++distinct_chosen_;
    flag = 1;
  }
  latest_.clear();
  chosen_reported_ = 0;
  begin_round(now);
}

void ExecutionMonitor::begin_round(Seconds now) {
  round_times_.clear();
  round_reported_ = 0;
  chosen_in_round_ = 0;
  round_started_ = now;
}

void ExecutionMonitor::store(NodeId node, double& slot, double value,
                             std::size_t& count) {
  if (is_chosen_.at_or_default(node) != 0) {
    if (std::isnan(slot) && !std::isnan(value)) ++count;
    if (!std::isnan(slot) && std::isnan(value)) --count;
  }
  slot = value;
}

void ExecutionMonitor::observe(NodeId node, double seconds_per_mop,
                               Seconds at) {
  (void)at;
  // Keep the *latest* time per node within the round, as Algorithm 2's
  // "collect t from Chosen nodes into T" implies one slot per node.
  double& slot = round_times_[node];
  if (std::isnan(slot)) ++round_reported_;
  store(node, slot, seconds_per_mop, chosen_in_round_);
  store(node, latest_[node], seconds_per_mop, chosen_reported_);
}

double ExecutionMonitor::threshold_spm() const {
  switch (policy_.kind) {
    case ThresholdPolicy::Kind::AbsoluteMin:
      return policy_.z;
    case ThresholdPolicy::Kind::RelativeMin:
    case ThresholdPolicy::Kind::RelativeMean:
    case ThresholdPolicy::Kind::RelativeMax:
      return policy_.z * baseline_spm_;
  }
  return policy_.z;
}

MonitorVerdict ExecutionMonitor::check(Seconds now) {
  // The bottleneck statistic (RelativeMax) must not wait for synchronised
  // rounds: a pipeline's upstream stages legitimately stop reporting once
  // their part of the stream has drained, which would gate the round
  // forever, and a *single* degraded observation already proves a
  // bottleneck.  Evaluate over the latest per-node observations instead.
  if (policy_.kind == ThresholdPolicy::Kind::RelativeMax) {
    if (chosen_reported_ != distinct_chosen_) return MonitorVerdict::None;
    double max_t = 0.0;
    for (const NodeId n : chosen_)
      max_t = std::max(max_t, latest_.at_or_default(n));
    ++rounds_;
    if (max_t > threshold_spm()) {
      ++triggers_;
      GRASP_LOG_INFO("monitor")
          << traits_.name << " bottleneck threshold breached: max="
          << max_t << " threshold=" << threshold_spm();
      begin_round(now);
      return MonitorVerdict::ThresholdExceeded;
    }
    return MonitorVerdict::None;
  }

  // Staleness: some chosen node has gone silent for the whole window.
  if (chosen_in_round_ != distinct_chosen_) {
    if (policy_.stale_after > 0.0 &&
        (now - round_started_).value > policy_.stale_after &&
        round_reported_ > 0) {
      ++rounds_;
      ++triggers_;
      GRASP_LOG_INFO("monitor") << traits_.name << " round stale after "
                                << (now - round_started_).value << "s";
      begin_round(now);
      return MonitorVerdict::RoundStale;
    }
    return MonitorVerdict::None;
  }

  ++rounds_;
  double min_t = std::numeric_limits<double>::infinity();
  double max_t = 0.0;
  double sum = 0.0;
  for (const NodeId n : chosen_) {
    const double t = round_times_.at_or_default(n);
    min_t = std::min(min_t, t);
    max_t = std::max(max_t, t);
    sum += t;
  }
  const double mean_t = sum / static_cast<double>(chosen_.size());
  double statistic = min_t;
  if (policy_.kind == ThresholdPolicy::Kind::RelativeMean) statistic = mean_t;
  if (policy_.kind == ThresholdPolicy::Kind::RelativeMax) statistic = max_t;

  begin_round(now);
  if (statistic > threshold_spm()) {
    ++triggers_;
    GRASP_LOG_INFO("monitor")
        << traits_.name << " threshold breached: statistic=" << statistic
        << " threshold=" << threshold_spm();
    return MonitorVerdict::ThresholdExceeded;
  }
  return MonitorVerdict::None;
}

}  // namespace grasp::core
