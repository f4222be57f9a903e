#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/export_chrome.hpp"
#include "obs/export_jsonl.hpp"
#include "obs/export_text.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace grasp::obs {
namespace {

class ManualClock final : public Clock {
 public:
  [[nodiscard]] double now_s() const override { return t; }
  double t = 0.0;
};

std::vector<SpanRecord> sample_spans() {
  ManualClock clock;
  SpanRecorder rec;
  rec.set_clock(&clock);
  const SpanId cal = rec.begin("calibration");
  clock.t = 1.5;
  rec.end(cal, 16.0, "initial");
  const SpanId chunk = rec.begin("chunk", 0, NodeId{2}, TaskId{11}, 480.0);
  clock.t = 2.0;
  rec.instant("crash_detected", 0, NodeId{5}, TaskId::invalid(), 0.0,
              "missed 5 heartbeats");
  clock.t = 3.25;
  rec.end(chunk, 1.75, "complete");
  rec.begin("handshake", cal, NodeId{7});  // left open on purpose
  return rec.records();
}

TEST(ObsExportChrome, OutputParsesBackAndCarriesPerfettoFields) {
  const std::string text = chrome_trace_json(sample_spans());
  std::string error;
  const auto doc = parse_json(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());

  std::size_t complete = 0, instants = 0, metadata = 0, open_markers = 0;
  std::set<double> tids;
  for (const JsonValue& e : events->as_array()) {
    ASSERT_TRUE(e.is_object());
    const JsonValue* ph = e.find("ph");
    ASSERT_NE(ph, nullptr);
    ASSERT_NE(e.find("pid"), nullptr);
    ASSERT_NE(e.find("tid"), nullptr);
    ASSERT_NE(e.find("name"), nullptr);
    if (ph->as_string() == "M") {
      ++metadata;
      continue;
    }
    tids.insert(e.find("tid")->as_number());
    ASSERT_NE(e.find("ts"), nullptr);
    if (ph->as_string() == "X") {
      ++complete;
      ASSERT_NE(e.find("dur"), nullptr);
      const JsonValue* args = e.find("args");
      ASSERT_NE(args, nullptr);
      if (const JsonValue* detail = args->find("detail");
          detail != nullptr && detail->as_string() == "open")
        ++open_markers;
    } else if (ph->as_string() == "i") {
      ++instants;
    }
  }
  // calibration + chunk + the open handshake as zero-duration X.
  EXPECT_EQ(complete, 3u);
  EXPECT_EQ(open_markers, 1u);
  EXPECT_EQ(instants, 1u);
  // Tracks: coordination (tid 0, the calibration span), nodes 2, 5, 7.
  EXPECT_EQ(tids, (std::set<double>{0.0, 3.0, 6.0, 8.0}));
  // process_name plus one thread_name per used track.
  EXPECT_EQ(metadata, 1u + tids.size());

  // Timestamps are microseconds: the chunk span began at t=1.5s.
  bool found_chunk = false;
  for (const JsonValue& e : events->as_array()) {
    if (e.find("ph")->as_string() == "X" &&
        e.find("name")->as_string() == "chunk") {
      found_chunk = true;
      EXPECT_DOUBLE_EQ(e.find("ts")->as_number(), 1.5e6);
      EXPECT_DOUBLE_EQ(e.find("dur")->as_number(), 1.75e6);
    }
  }
  EXPECT_TRUE(found_chunk);
}

TEST(ObsExportJsonl, MetricsAndSpansRoundTripLineByLine) {
  MetricsRegistry reg;
  reg.inc(reg.counter("farm.tasks_completed"), 500);
  reg.set(reg.gauge("farm.makespan_s"), 123.5);
  const HistogramHandle h = reg.histogram("farm.task_service_seconds");
  reg.observe_always(h, 0.5);
  reg.observe_always(h, 2.0);

  std::ostringstream out;
  JsonlWriter writer(out);
  writer.write_metrics(reg.snapshot());
  writer.write_spans(sample_spans());
  writer.write_log(1, "INFO", "farm", "recalibrating \"now\"");

  std::istringstream lines(out.str());
  std::string line;
  std::size_t counters = 0, gauges = 0, histograms = 0, spans = 0,
              instants = 0, logs = 0;
  while (std::getline(lines, line)) {
    std::string error;
    const auto doc = parse_json(line, &error);
    ASSERT_TRUE(doc.has_value()) << error << " in line: " << line;
    const std::string type = doc->find("type")->as_string();
    if (type == "counter") {
      ++counters;
      EXPECT_EQ(doc->find("name")->as_string(), "farm.tasks_completed");
      EXPECT_DOUBLE_EQ(doc->find("value")->as_number(), 500.0);
    } else if (type == "gauge") {
      ++gauges;
      EXPECT_DOUBLE_EQ(doc->find("value")->as_number(), 123.5);
    } else if (type == "histogram") {
      ++histograms;
      EXPECT_DOUBLE_EQ(doc->find("count")->as_number(), 2.0);
      EXPECT_DOUBLE_EQ(doc->find("sum")->as_number(), 2.5);
      ASSERT_TRUE(doc->find("buckets")->is_array());
      ASSERT_NE(doc->find("p95"), nullptr);
    } else if (type == "span") {
      ++spans;
      ASSERT_NE(doc->find("begin_s"), nullptr);
      ASSERT_NE(doc->find("end_s"), nullptr);
    } else if (type == "instant") {
      ++instants;
    } else if (type == "log") {
      ++logs;
      EXPECT_EQ(doc->find("component")->as_string(), "farm");
      EXPECT_EQ(doc->find("message")->as_string(), "recalibrating \"now\"");
    } else {
      FAIL() << "unexpected line type: " << type;
    }
  }
  EXPECT_EQ(counters, 1u);
  EXPECT_EQ(gauges, 1u);
  EXPECT_EQ(histograms, 1u);
  EXPECT_EQ(spans, 3u);
  EXPECT_EQ(instants, 1u);
  EXPECT_EQ(logs, 1u);
}

TEST(ObsExportText, DashboardListsMetricsAndSpans) {
  MetricsRegistry reg;
  reg.inc(reg.counter("resil.failovers"), 2);
  const HistogramHandle h = reg.histogram("farm.task_service_seconds");
  for (int i = 1; i <= 100; ++i)
    reg.observe_always(h, 0.01 * static_cast<double>(i));
  const std::vector<SpanRecord> spans = sample_spans();
  const std::string dash = text_dashboard(reg.snapshot(), &spans);
  EXPECT_NE(dash.find("resil.failovers"), std::string::npos);
  EXPECT_NE(dash.find("farm.task_service_seconds"), std::string::npos);
  EXPECT_NE(dash.find("p95"), std::string::npos);
  EXPECT_NE(dash.find("calibration"), std::string::npos);
}

}  // namespace
}  // namespace grasp::obs
