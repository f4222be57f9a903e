// Crash flight recorder: a bounded ring of recent engine events.
//
// Full tracing is too heavy to leave on for every run, so postmortems of
// a crashed or gated-out run usually mean "rerun with --trace-out and
// hope it reproduces".  The flight recorder closes that gap: engines feed
// it a trickle of load-bearing events (calibrations, crash detections,
// chunk losses, failovers, SLO breaches) through `Telemetry::flight`, it
// retains the most recent `capacity` of them in a fixed ring — no
// allocation after construction, O(1) per note — and the whole ring can
// be dumped as JSONL plus a Chrome/Perfetto instant trace when something
// dies: on an engine exception (GridService dumps failed jobs), a failed
// --smoke gate, or an explicit dump().
//
// Single-threaded, like all of Telemetry (obs/telemetry.hpp).  Event
// strings must be static-lifetime literals, mirroring SpanRecord's
// contract.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "support/ids.hpp"
#include "support/ring_buffer.hpp"

namespace grasp::obs {

struct FlightEvent {
  double at_s = 0.0;
  const char* kind = "";    ///< category: "engine", "crash", "slo_breach"…
  const char* name = "";    ///< event name within the category
  NodeId node = NodeId::invalid();
  double value = 0.0;
  const char* detail = "";  ///< static-lifetime qualifier
};

class FlightRecorder {
 public:
  /// Throws std::invalid_argument on a zero capacity.
  explicit FlightRecorder(std::size_t capacity = 1024) : ring_(capacity) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Record one event, evicting the oldest when the ring is full.  All
  /// string arguments must outlive the recorder (use literals).
  void note(double at_s, const char* kind, const char* name,
            NodeId node = NodeId::invalid(), double value = 0.0,
            const char* detail = "");

  /// Snapshot of the retained events, oldest first.
  [[nodiscard]] std::vector<FlightEvent> events() const {
    return ring_.to_vector();
  }
  /// Total events ever noted (>= retained size; the difference is the
  /// count the ring evicted).
  [[nodiscard]] std::size_t seen() const { return seen_; }
  [[nodiscard]] std::size_t capacity() const { return ring_.capacity(); }
  void clear() {
    ring_.clear();
    seen_ = 0;
  }

  /// One JSON object per line; first line is a header carrying
  /// seen/retained/capacity so a dump is self-describing.
  void dump_jsonl(std::ostream& out) const;
  /// Chrome trace-event JSON: every event becomes a ph:"i" instant on the
  /// node's track (tid node+1, coordination tid 0), loadable in Perfetto.
  void dump_chrome(std::ostream& out) const;

  /// Default dump destination: dump() writes `<prefix>.jsonl` and
  /// `<prefix>.trace.json`.  Empty (the default) disables dump().
  void set_dump_path(std::string prefix) { dump_path_ = std::move(prefix); }
  [[nodiscard]] const std::string& dump_path() const { return dump_path_; }

  /// Dump both formats to the configured prefix; false when no prefix is
  /// set or a file cannot be opened.
  bool dump() const { return !dump_path_.empty() && dump(dump_path_); }
  bool dump(const std::string& prefix) const;

 private:
  RingBuffer<FlightEvent> ring_;
  std::size_t seen_ = 0;
  std::string dump_path_;
};

}  // namespace grasp::obs
