// JSONL structured event stream.
//
// One self-describing JSON object per line (`"type"` discriminates:
// span / instant / counter / gauge / histogram / log), so downstream
// tooling can stream-filter a run without loading it whole.  The writer
// is the one obs type that is thread-safe (see obs/telemetry.hpp): each
// line is written under a lock.
#pragma once

#include <iosfwd>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace grasp::obs {

class JsonlWriter {
 public:
  /// The stream must outlive the writer.
  explicit JsonlWriter(std::ostream& out) : out_(&out) {}
  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  void write_span(const SpanRecord& rec);
  void write_spans(const std::vector<SpanRecord>& spans);
  /// One line per counter, gauge and histogram (histogram lines carry
  /// count/sum/min/max/p50/p95/p99 plus raw buckets).
  void write_metrics(const MetricsSnapshot& snapshot);
  void write_log(int level, const std::string& level_name,
                 const std::string& component, const std::string& message);

 private:
  void write_line(const std::string& line);

  std::ostream* out_;
  /// Safety code, not a leftover: this is the one place in obs where two
  /// threads really meet.  As the log sink (attach_log_sink) the writer
  /// takes lines from whichever thread logs — a task body running on a
  /// ThreadBackend worker, say — while the engine's thread may be writing
  /// spans or metrics to the same stream.  The lock keeps lines whole.
  std::mutex mutex_;
};

/// Route log lines at Info and above into `writer` (global, one at a
/// time; pass nullptr to detach).  Implemented over grasp::set_log_sink.
void attach_log_sink(JsonlWriter* writer);

}  // namespace grasp::obs
