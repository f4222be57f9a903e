// Causal spans: scoped begin/end records with parent links.
//
// A span is one arc of engine behaviour — dispatch→complete for a chunk,
// a calibration round, the crash→rollback→promotion→handshake sequence, a
// checkpoint pass.  Spans carry a parent id so exporters can reconstruct
// the causal tree, and they are stamped from a Clock interface: the
// simulation backend supplies virtual time, the threaded backend wall
// time, and the recorder never knows the difference.
//
// Recording is append-only into a vector; `end` is O(1) because ids are
// indices + 1.  Single-threaded, like all of Telemetry: see
// obs/telemetry.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/ids.hpp"

namespace grasp::obs {

/// Time source for span stamps, in seconds of whichever clock drives the
/// run.  Implemented by the engines over `Backend::now()`.
class Clock {
 public:
  virtual ~Clock() = default;
  [[nodiscard]] virtual double now_s() const = 0;
};

/// 0 is "no span" (roots have parent 0; a disabled recorder returns 0).
using SpanId = std::uint64_t;

struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;
  const char* name = "";    ///< static-lifetime category string
  double begin_s = 0.0;
  double end_s = -1.0;      ///< < begin_s means still open
  bool instant = false;     ///< point event, no duration
  NodeId node = NodeId::invalid();  ///< invalid → coordination track
  TaskId task = TaskId::invalid();
  double value = 0.0;       ///< category-specific payload (work, latency…)
  const char* detail = "";  ///< static-lifetime outcome/qualifier string

  [[nodiscard]] bool open() const { return !instant && end_s < begin_s; }
};

class SpanRecorder {
 public:
  void set_clock(const Clock* clock) { clock_ = clock; }
  [[nodiscard]] const Clock* clock() const { return clock_; }
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span; returns 0 (a no-op id) when disabled or clock-less.
  SpanId begin(const char* name, SpanId parent = 0,
               NodeId node = NodeId::invalid(),
               TaskId task = TaskId::invalid(), double value = 0.0);

  /// Close an open span.  `end(0)` is a no-op, so callers can thread ids
  /// through without re-checking enablement.  `detail` (if non-null)
  /// records the outcome ("complete", "lost", "zombie"…).
  void end(SpanId id, double value, const char* detail);
  void end(SpanId id) { end(id, 0.0, nullptr); }

  /// Point event (ph:"i" in the Chrome export).
  void instant(const char* name, SpanId parent = 0,
               NodeId node = NodeId::invalid(),
               TaskId task = TaskId::invalid(), double value = 0.0,
               const char* detail = "");

  /// Append a fully formed record (the TraceRecorder bridge uses this).
  void append(SpanRecord record);

  /// Graft another recorder's records under a fresh root span: a record
  /// named `root_name` covering [begin_s, end_s] is appended, then every
  /// record of `subtree` follows with re-assigned ids, parent links
  /// remapped and former roots re-parented onto the new root.  Unlike
  /// begin/end this needs no clock — the stamps are already in the records
  /// — so a shared service-level recorder can collect per-job span trees
  /// after each job retires.  Returns the root's id (0 when disabled).
  SpanId import_tree(const char* root_name, double begin_s, double end_s,
                     double value, const std::vector<SpanRecord>& subtree);

  [[nodiscard]] const std::vector<SpanRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t open_count() const;
  void clear() { records_.clear(); }

 private:
  const Clock* clock_ = nullptr;
  bool enabled_ = true;
  std::vector<SpanRecord> records_;
};

}  // namespace grasp::obs
