// Execution trace recording and post-hoc analysis.
//
// Skeleton runs emit a stream of timestamped events (task dispatch and
// completion, calibration rounds, adaptation actions).  The recorder counts
// every event by kind and stores the records it is given; from the stored
// records it derives the series the experiments plot: throughput over time,
// per-node utilisation, adaptation timelines.  Engines write it only
// through obs::Emitter (obs/emit.hpp), whose per-kind table derives the
// matching counter, span instant and flight note from the same record; a
// new TraceEventKind needs a row there too (a static_assert checks).  The
// table also marks the per-task kinds (dispatch, completion, pipeline
// item), whose records the emitter stores only at the telemetry detail
// tier: without it they are counted (`count_only`) and not stored, so
// `count()` stays exact for every kind while `events()` holds the
// coordination record alone.  A record's note views a static-lifetime
// string, so records are trivially copyable and storing one allocates
// nothing beyond the vector's growth.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
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
  /// Count the event and store its record.
  void record(TraceEvent event);
  /// Count an event of `kind` without storing a record: `count(kind)`
  /// stays exact, while `events()` and the series derived from it no
  /// longer hold every event of the kind.
  void count_only(TraceEventKind kind) {
    ++counts_[static_cast<std::size_t>(kind)];
    unstored_ |= kind_bit(kind);
  }
  /// True when every event of `kind` counted so far was also stored.
  [[nodiscard]] bool all_stored(TraceEventKind kind) const {
    return (unstored_ & kind_bit(kind)) == 0;
  }

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
  /// Throws std::logic_error when a completion was counted but not stored
  /// (a run without detail telemetry): the series would read zeros.
  [[nodiscard]] std::vector<double> throughput_series(Seconds bucket,
                                                      Seconds horizon) const;

  /// Busy fraction per node over [0, horizon]: sum of (complete - dispatch)
  /// per node divided by horizon.  Pairs dispatch/completion by task id.
  /// Throws std::logic_error when a dispatch or completion was counted but
  /// not stored.
  [[nodiscard]] std::vector<double> node_busy_fraction(
      std::size_t node_count, Seconds horizon) const;

  /// Times of adaptation actions (recalibrations, swaps, remaps, resizes).
  [[nodiscard]] std::vector<Seconds> adaptation_times() const;

  void clear() {
    events_.clear();
    counts_.fill(0);
    unstored_ = 0;
  }

 private:
  static constexpr std::uint32_t kind_bit(TraceEventKind kind) {
    return std::uint32_t{1} << static_cast<unsigned>(kind);
  }
  /// Throws std::logic_error unless every event of `kinds` was stored.
  void require_stored(std::initializer_list<TraceEventKind> kinds,
                      const char* what) const;

  std::vector<TraceEvent> events_;
  std::array<std::size_t, kTraceEventKindCount> counts_{};
  /// One bit per kind with an event counted but not stored.
  std::uint32_t unstored_ = 0;
};
static_assert(kTraceEventKindCount <= 32, "TraceRecorder::unstored_ bits");

}  // namespace grasp::gridsim
