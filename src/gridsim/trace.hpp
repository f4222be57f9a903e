// Execution trace recording and post-hoc analysis.
//
// Skeleton runs emit a stream of timestamped events (task dispatch and
// completion, calibration rounds, adaptation actions).  The recorder stores
// them and derives the series the experiments plot: throughput over time,
// per-node utilisation, adaptation timelines.  Engines write it only
// through obs::Emitter (obs/emit.hpp), whose per-kind table derives the
// matching counter, span instant and flight note from the same record; a
// new TraceEventKind needs a row there too (a static_assert checks).  A
// record's note views a static-lifetime string, so records are trivially
// copyable and storing one allocates nothing beyond the vector's growth.
#pragma once

#include <array>
#include <cstddef>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/ids.hpp"

namespace grasp::gridsim {

enum class TraceEventKind {
  TaskDispatched,
  TaskCompleted,
  TaskReissued,
  CalibrationStarted,
  CalibrationFinished,
  RecalibrationTriggered,
  NodeSwapped,
  StageRemapped,
  StageReplicated,
  ChunkResized,
  ItemCompleted,  // pipeline sink
  // Membership / resilience events (churn runs).
  NodeCrashDetected,   ///< failure detector declared the node dead
  NodeLeftPool,        ///< announced departure consumed by the engine
  NodeJoinedPool,      ///< join/rejoin observed; probation begins
  NodeAdmitted,        ///< newcomer passed fast-path calibration
  NodeEvicted,         ///< persistent degradation shrank the worker set
  ChunkRedispatched,   ///< task lost to a crash returned to the queue
  ChunkCheckpointed,   ///< progress message advanced a chunk's high-water mark
  TaskRecovered,       ///< lost-chunk task salvaged from its checkpoint
  // Farmer failover events (replicated-farmer runs).
  FarmerCrashDetected,  ///< standbys declared the coordinator dead
  FarmerPromoted,       ///< a standby took over (value = promotion latency)
  StandbyRecruited,     ///< a node began shadowing the farmer's state
  TaskResultLost,       ///< completed result died un-replicated with the farmer
};

/// Number of TraceEventKind enumerators (update alongside the enum; the
/// recorder's per-kind counter array is sized by it).
inline constexpr std::size_t kTraceEventKindCount =
    static_cast<std::size_t>(TraceEventKind::TaskResultLost) + 1;

[[nodiscard]] const char* to_string(TraceEventKind kind);

struct TraceEvent {
  Seconds at;
  TraceEventKind kind;
  NodeId node;      ///< involved node, if any
  TaskId task;      ///< involved task/item, if any
  double value{0};  ///< kind-specific payload (e.g. observed time, chunk)
  /// Views a static-lifetime string (a literal): the record owns no memory,
  /// so recording builds no string.  `==` compares content, not pointers.
  std::string_view note;
};
static_assert(std::is_trivially_copyable_v<TraceEvent>);

class TraceRecorder {
 public:
  void record(TraceEvent event);

  [[nodiscard]] const std::vector<TraceEvent>& events() const {
    return events_;
  }
  /// Events recorded with `kind` so far.  O(1): `record` maintains a
  /// per-kind counter (analyses call this per kind per report line, which
  /// used to rescan the whole event vector each time).
  [[nodiscard]] std::size_t count(TraceEventKind kind) const {
    return counts_[static_cast<std::size_t>(kind)];
  }

  /// Completions per bucket of width `bucket` from 0 to `horizon`
  /// (TaskCompleted + ItemCompleted).  The throughput-over-time figure.
  [[nodiscard]] std::vector<double> throughput_series(Seconds bucket,
                                                      Seconds horizon) const;

  /// Busy fraction per node over [0, horizon]: sum of (complete - dispatch)
  /// per node divided by horizon.  Pairs dispatch/completion by task id.
  [[nodiscard]] std::vector<double> node_busy_fraction(
      std::size_t node_count, Seconds horizon) const;

  /// Times of adaptation actions (recalibrations, swaps, remaps, resizes).
  [[nodiscard]] std::vector<Seconds> adaptation_times() const;

  void clear() {
    events_.clear();
    counts_.fill(0);
  }

 private:
  std::vector<TraceEvent> events_;
  std::array<std::size_t, kTraceEventKindCount> counts_{};
};

}  // namespace grasp::gridsim
