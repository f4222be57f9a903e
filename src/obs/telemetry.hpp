// Telemetry: the bundle an engine run records into.
//
// One MetricsRegistry (counters always live; histograms gated) plus one
// SpanRecorder (gated with the histograms) plus an optional flight
// recorder.  The same detail switch decides whether an engine's trace
// stores per-task records (obs/emit.hpp); it is the one control for them.
// Engines accept a `Telemetry*` in their params; when none is supplied they
// record into a private detail-disabled instance so reports can still be
// read out of the registry and the trace's counts — the "no telemetry"
// configuration is "nobody else is looking", so nothing per task is kept.
// Engine events reach all three through one obs::Emitter per run
// (obs/emit.hpp), never sink by sink.
//
// Pass a fresh Telemetry per run when you want per-run numbers; a reused
// one keeps accumulating counters, which the engines tolerate by
// snapshotting counter baselines at run start and reporting deltas.
#pragma once

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace grasp::obs {

class FlightRecorder;

struct Telemetry {
  MetricsRegistry metrics;
  SpanRecorder spans;
  /// Optional crash flight recorder (non-owning; must outlive the runs
  /// recording into it).  The emitter notes the event kinds its table
  /// names here when set; null costs one pointer compare per such event.
  FlightRecorder* flight = nullptr;

  /// `detail` gates histograms, spans and the trace's per-task records
  /// (dispatches, completions, pipeline items); counters, per-kind trace
  /// counts and coordination records are always live.
  explicit Telemetry(bool detail = true) { set_detail_enabled(detail); }

  void set_detail_enabled(bool on) {
    metrics.set_enabled(on);
    spans.set_enabled(on);
  }
  [[nodiscard]] bool detail_enabled() const { return metrics.enabled(); }

  /// Engines install their backend clock for the duration of a run and
  /// clear it on exit (the adapter lives on the run's stack).
  void set_clock(const Clock* clock) { spans.set_clock(clock); }
};

/// Holds an engine's clock on a Telemetry for one run: attach() sets it,
/// and release(), or destruction while the run unwinds, clears it again so
/// the telemetry never keeps a clock that died with the run.
class ClockLease {
 public:
  ClockLease() = default;
  ClockLease(const ClockLease&) = delete;
  ClockLease& operator=(const ClockLease&) = delete;
  ~ClockLease() { release(); }

  void attach(Telemetry& telemetry, const Clock& clock) {
    telemetry.set_clock(&clock);
    telemetry_ = &telemetry;
  }
  void release() {
    if (telemetry_ != nullptr) telemetry_->set_clock(nullptr);
    telemetry_ = nullptr;
  }

 private:
  Telemetry* telemetry_ = nullptr;
};

}  // namespace grasp::obs
