#include "obs/flight_recorder.hpp"

#include <fstream>
#include <ostream>

#include "obs/json.hpp"

namespace grasp::obs {

void FlightRecorder::note(double at_s, const char* kind, const char* name,
                          NodeId node, double value, const char* detail) {
  ring_.push({at_s, kind, name, node, value, detail});
  ++seen_;
}

void FlightRecorder::dump_jsonl(std::ostream& out) const {
  out << "{\"type\": \"flight_header\", \"seen\": " << seen_
      << ", \"retained\": " << ring_.size()
      << ", \"capacity\": " << ring_.capacity() << "}\n";
  for (const FlightEvent& e : events()) {
    out << "{\"type\": \"flight\", \"at_s\": " << e.at_s << ", \"kind\": \""
        << json_escape(e.kind) << "\", \"name\": \"" << json_escape(e.name)
        << "\"";
    if (e.node.is_valid()) out << ", \"node\": " << e.node.value;
    if (e.value != 0.0) out << ", \"value\": " << e.value;
    if (e.detail[0] != '\0')
      out << ", \"detail\": \"" << json_escape(e.detail) << "\"";
    out << "}\n";
  }
}

void FlightRecorder::dump_chrome(std::ostream& out) const {
  const std::vector<FlightEvent> evs = events();
  out << "{\"traceEvents\": [";
  bool first = true;
  for (const FlightEvent& e : evs) {
    const std::uint64_t tid = e.node.is_valid() ? e.node.value + 1 : 0;
    out << (first ? "\n" : ",\n") << "  {\"name\": \"" << json_escape(e.name)
        << "\", \"cat\": \"" << json_escape(e.kind)
        << "\", \"ph\": \"i\", \"s\": \"t\", \"ts\": " << e.at_s * 1e6
        << ", \"pid\": 1, \"tid\": " << tid << ", \"args\": {\"value\": "
        << e.value << ", \"detail\": \"" << json_escape(e.detail) << "\"}}";
    first = false;
  }
  out << "\n], \"displayTimeUnit\": \"ms\"}\n";
}

bool FlightRecorder::dump(const std::string& prefix) const {
  std::ofstream jsonl(prefix + ".jsonl");
  if (!jsonl) return false;
  dump_jsonl(jsonl);
  std::ofstream chrome(prefix + ".trace.json");
  if (!chrome) return false;
  dump_chrome(chrome);
  return true;
}

}  // namespace grasp::obs
