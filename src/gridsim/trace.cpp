#include "gridsim/trace.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <unordered_map>

namespace grasp::gridsim {

const char* to_string(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::TaskDispatched: return "task_dispatched";
    case TraceEventKind::TaskCompleted: return "task_completed";
    case TraceEventKind::TaskReissued: return "task_reissued";
    case TraceEventKind::CalibrationStarted: return "calibration_started";
    case TraceEventKind::CalibrationFinished: return "calibration_finished";
    case TraceEventKind::RecalibrationTriggered:
      return "recalibration_triggered";
    case TraceEventKind::NodeSwapped: return "node_swapped";
    case TraceEventKind::StageRemapped: return "stage_remapped";
    case TraceEventKind::StageReplicated: return "stage_replicated";
    case TraceEventKind::ChunkResized: return "chunk_resized";
    case TraceEventKind::ItemCompleted: return "item_completed";
    case TraceEventKind::NodeCrashDetected: return "node_crash_detected";
    case TraceEventKind::NodeLeftPool: return "node_left_pool";
    case TraceEventKind::NodeJoinedPool: return "node_joined_pool";
    case TraceEventKind::NodeAdmitted: return "node_admitted";
    case TraceEventKind::NodeEvicted: return "node_evicted";
    case TraceEventKind::ChunkRedispatched: return "chunk_redispatched";
    case TraceEventKind::ChunkCheckpointed: return "chunk_checkpointed";
    case TraceEventKind::TaskRecovered: return "task_recovered";
    case TraceEventKind::FarmerCrashDetected: return "farmer_crash_detected";
    case TraceEventKind::FarmerPromoted: return "farmer_promoted";
    case TraceEventKind::StandbyRecruited: return "standby_recruited";
    case TraceEventKind::TaskResultLost: return "task_result_lost";
  }
  return "unknown";
}

void TraceRecorder::record(TraceEvent event) {
  ++counts_[static_cast<std::size_t>(event.kind)];
  events_.push_back(std::move(event));
}

void TraceRecorder::require_stored(std::initializer_list<TraceEventKind> kinds,
                                   const char* what) const {
  for (const TraceEventKind k : kinds)
    if (!all_stored(k))
      throw std::logic_error(
          std::string("TraceRecorder::") + what + ": " + to_string(k) +
          " records were counted but not stored (run with detail telemetry)");
}

std::vector<double> TraceRecorder::throughput_series(Seconds bucket,
                                                     Seconds horizon) const {
  require_stored({TraceEventKind::TaskCompleted, TraceEventKind::ItemCompleted},
                 "throughput_series");
  const auto buckets = static_cast<std::size_t>(
      std::max(1.0, std::ceil(horizon.value / bucket.value)));
  std::vector<double> series(buckets, 0.0);
  for (const auto& e : events_) {
    if (e.kind != TraceEventKind::TaskCompleted &&
        e.kind != TraceEventKind::ItemCompleted)
      continue;
    auto idx = static_cast<std::size_t>(e.at.value / bucket.value);
    if (idx >= buckets) idx = buckets - 1;
    series[idx] += 1.0;
  }
  return series;
}

std::vector<double> TraceRecorder::node_busy_fraction(std::size_t node_count,
                                                      Seconds horizon) const {
  require_stored({TraceEventKind::TaskDispatched, TraceEventKind::TaskCompleted},
                 "node_busy_fraction");
  std::vector<double> busy(node_count, 0.0);
  std::unordered_map<std::uint64_t, Seconds> open;  // task id -> dispatch time
  for (const auto& e : events_) {
    if (e.kind == TraceEventKind::TaskDispatched) {
      open[e.task.value] = e.at;
    } else if (e.kind == TraceEventKind::TaskCompleted) {
      const auto it = open.find(e.task.value);
      if (it == open.end()) continue;
      if (e.node.is_valid() && e.node.value < node_count)
        busy[e.node.value] += (e.at - it->second).value;
      open.erase(it);
    }
  }
  if (horizon.value > 0.0)
    for (auto& b : busy) b /= horizon.value;
  return busy;
}

std::vector<Seconds> TraceRecorder::adaptation_times() const {
  std::vector<Seconds> times;
  for (const auto& e : events_) {
    switch (e.kind) {
      case TraceEventKind::RecalibrationTriggered:
      case TraceEventKind::NodeSwapped:
      case TraceEventKind::StageRemapped:
      case TraceEventKind::StageReplicated:
      case TraceEventKind::ChunkResized:
      case TraceEventKind::NodeAdmitted:
      case TraceEventKind::NodeEvicted:
      case TraceEventKind::ChunkRedispatched:
        times.push_back(e.at);
        break;
      default:
        break;
    }
  }
  return times;
}

}  // namespace grasp::gridsim
