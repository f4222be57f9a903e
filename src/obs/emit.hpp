// One engine event, one emission.
//
// Every adaptation an engine makes (a calibration, a crash declaration, a
// re-dispatch, a promotion) is one gridsim::TraceEventKind.  An Emitter
// turns a single `emit(kind, node, task, value, note)` into every sink
// write that kind implies, read off the constexpr per-kind table below:
//
//   * the TraceRecorder count, always, and its stored record, except for a
//     per-task kind (dispatch, completion, pipeline item) while detail
//     telemetry is off: those runs count the event and store nothing;
//   * a resilience counter bump, or none;
//   * a span instant (detail tier, like every span), or none;
//   * a flight-recorder note (when a recorder is attached), or none.
//
// The detail tier is read off the span recorder the emitter writes to,
// which each engine enables from its Telemetry (HierFarm's shard recorders
// copy it), so one switch gates spans, histograms and per-task records.
// The instant and the flight note carry the event's node and value and
// take `note` as their detail, so the four views of one event agree by
// construction.  Engines write no sink directly for an event that has a
// kind; what stays hand-written is what no kind describes (span begin/end
// pairs, histograms, log lines, the run begin/end flight notes).
#pragma once

#include <cstddef>
#include <iterator>

#include "gridsim/trace.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/span.hpp"
#include "resil/report.hpp"

namespace grasp::obs {

/// What one TraceEventKind writes besides its trace record.
struct EmitRow {
  gridsim::TraceEventKind kind;
  /// Resilience counter bumped once per event (null: none).
  CounterHandle resil::ResilienceMetrics::*counter = nullptr;
  /// Span-instant name (null: none).  "crash_detected" is one of the blame
  /// markers analyze_blame reads (obs/critical_path.hpp).
  const char* instant = nullptr;
  /// Flight-recorder category and name (null category: none).
  const char* flight_kind = nullptr;
  const char* flight_name = nullptr;
  /// One event per task or item: its record is stored only at the detail
  /// tier, and the row writes no other sink (a static_assert checks).
  bool per_task = false;
};

namespace detail {
using K = gridsim::TraceEventKind;
using RM = resil::ResilienceMetrics;
}  // namespace detail

inline constexpr EmitRow kEmitTable[] = {
    {.kind = detail::K::TaskDispatched, .per_task = true},
    {.kind = detail::K::TaskCompleted, .per_task = true},
    {detail::K::TaskReissued},
    {detail::K::CalibrationStarted, nullptr, nullptr, "calibration", "begin"},
    {detail::K::CalibrationFinished, nullptr, nullptr, "calibration", "end"},
    {detail::K::RecalibrationTriggered},
    {detail::K::NodeSwapped},
    {detail::K::StageRemapped},
    {detail::K::StageReplicated},
    {detail::K::ChunkResized},
    {.kind = detail::K::ItemCompleted, .per_task = true},
    {detail::K::NodeCrashDetected, &detail::RM::crashes_detected,
     "crash_detected", "crash", "node_down"},
    {detail::K::NodeLeftPool, &detail::RM::leaves, "node_left_pool"},
    {detail::K::NodeJoinedPool, &detail::RM::joins, "node_joined_pool"},
    {detail::K::NodeAdmitted, nullptr, "node_admitted"},
    {detail::K::NodeEvicted, nullptr, "node_evicted"},
    {detail::K::ChunkRedispatched, &detail::RM::tasks_redispatched},
    {detail::K::ChunkCheckpointed, nullptr, "chunk_checkpointed"},
    {detail::K::TaskRecovered, nullptr, "task_recovered"},
    {detail::K::FarmerCrashDetected, nullptr, "crash_detected", "failover",
     "farmer_down"},
    {detail::K::FarmerPromoted, nullptr, "farmer_promoted", "failover",
     "promoted"},
    {detail::K::StandbyRecruited, nullptr, "standby_recruited"},
    {detail::K::TaskResultLost, &detail::RM::results_rolled_back,
     "task_result_lost"},
};
static_assert(std::size(kEmitTable) == gridsim::kTraceEventKindCount,
              "one emission row per TraceEventKind");

namespace detail {
constexpr bool rows_in_kind_order() {
  for (std::size_t i = 0; i < std::size(kEmitTable); ++i)
    if (static_cast<std::size_t>(kEmitTable[i].kind) != i) return false;
  return true;
}
}  // namespace detail
static_assert(detail::rows_in_kind_order(),
              "kEmitTable rows must follow TraceEventKind order");

namespace detail {
constexpr bool per_task_rows_are_trace_only() {
  for (const EmitRow& row : kEmitTable)
    if (row.per_task && (row.counter != nullptr || row.instant != nullptr ||
                         row.flight_kind != nullptr))
      return false;
  return true;
}
}  // namespace detail
static_assert(detail::per_task_rows_are_trace_only(),
              "a per-task row writes the trace and nothing else");

/// The per-run choke point.  Non-owning: every sink must outlive it.
class Emitter {
 public:
  /// `rm` (with `metrics`) is the run's resilience counter block; an engine
  /// that keeps none passes null and the counter column is not written.
  /// `flight` may be null (no recorder attached).
  Emitter(const Clock& clock, gridsim::TraceRecorder& trace,
          SpanRecorder& spans, FlightRecorder* flight,
          MetricsRegistry* metrics = nullptr,
          const resil::ResilienceMetrics* rm = nullptr)
      : clock_(&clock),
        trace_(&trace),
        spans_(&spans),
        flight_(flight),
        metrics_(metrics),
        rm_(rm) {}

  /// Record one event, stamped now.  `note` must be a static-lifetime
  /// string, such as a literal: the trace record keeps a view of it, not a
  /// copy, and it doubles as the instant's and the flight note's detail.
  /// A per-task kind is only counted while the spans' detail tier is off.
  void emit(gridsim::TraceEventKind kind, NodeId node = NodeId::invalid(),
            TaskId task = TaskId::invalid(), double value = 0.0,
            const char* note = "") {
    const EmitRow& row = kEmitTable[static_cast<std::size_t>(kind)];
    if (row.per_task && !spans_->enabled()) {
      trace_->count_only(kind);
      return;
    }
    const Seconds at{clock_->now_s()};
    trace_->record({at, kind, node, task, value, note});
    if (row.counter != nullptr && rm_ != nullptr)
      metrics_->inc(rm_->*row.counter);
    if (row.instant != nullptr)
      spans_->instant(row.instant, 0, node, task, value, note);
    if (row.flight_kind != nullptr && flight_ != nullptr)
      flight_->note(at.value, row.flight_kind, row.flight_name, node, value,
                    note);
  }

 private:
  const Clock* clock_;
  gridsim::TraceRecorder* trace_;
  SpanRecorder* spans_;
  FlightRecorder* flight_;
  MetricsRegistry* metrics_;
  const resil::ResilienceMetrics* rm_;
};

}  // namespace grasp::obs
