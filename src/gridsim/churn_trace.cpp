#include "gridsim/churn_trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace grasp::gridsim {

namespace {

struct Interval {
  double up = 0.0;
  double down = -1.0;  ///< < 0: never closes inside the trace
  ChurnEventKind end_kind = ChurnEventKind::Crash;
};

[[noreturn]] void fail(std::size_t line_no, const std::string& why) {
  throw std::runtime_error("availability trace, line " +
                           std::to_string(line_no) + ": " + why);
}

}  // namespace

ChurnTimeline load_availability_trace(std::istream& in) {
  // Per-node interval lists, in file order (ordering is validated, so file
  // order is time order).
  std::map<std::uint64_t, std::vector<Interval>> intervals;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream fields(line);
    std::uint64_t node = 0;
    if (!(fields >> node)) continue;  // blank / comment-only line
    double up = 0.0;
    std::string down_text, kind_text;
    if (!(fields >> up >> down_text)) fail(line_no, "expected: node up down");
    Interval iv;
    iv.up = up;
    if (down_text != "-") {
      // The whole field must be one finite number: strtod alone would take
      // "12abc" as 12, and NaN / infinity slip past every ordering check.
      char* end = nullptr;
      iv.down = std::strtod(down_text.c_str(), &end);
      if (end != down_text.c_str() + down_text.size() ||
          !std::isfinite(iv.down))
        fail(line_no, "bad down time '" + down_text + "'");
      if (iv.down < iv.up) fail(line_no, "interval closes before it opens");
    }
    if (fields >> kind_text) {
      if (kind_text == "crash") iv.end_kind = ChurnEventKind::Crash;
      else if (kind_text == "leave") iv.end_kind = ChurnEventKind::Leave;
      else fail(line_no, "end kind must be 'crash' or 'leave'");
      if (iv.down < 0.0)
        fail(line_no, "an open interval cannot name an end kind");
      std::string extra;
      if (fields >> extra) fail(line_no, "unexpected field '" + extra + "'");
    }
    auto& list = intervals[node];
    if (!list.empty()) {
      const Interval& prev = list.back();
      if (prev.down < 0.0)
        fail(line_no, "interval after an open one for the same node");
      if (iv.up < prev.down)
        fail(line_no, "overlapping/unordered intervals for one node");
    }
    list.push_back(iv);
  }

  std::vector<ChurnEvent> events;
  std::vector<NodeId> absent;
  for (const auto& [node_raw, list] : intervals) {
    const NodeId node{node_raw};
    bool first = true;
    for (const Interval& iv : list) {
      if (first && iv.up > 0.0) absent.push_back(node);
      if (!first || iv.up > 0.0)
        events.push_back({Seconds{iv.up},
                          first ? ChurnEventKind::Join
                                : ChurnEventKind::Rejoin,
                          node});
      if (iv.down >= 0.0)
        events.push_back({Seconds{iv.down}, iv.end_kind, node});
      first = false;
    }
  }
  return ChurnTimeline(std::move(events), std::move(absent));
}

ChurnTimeline load_availability_trace(const std::string& path) {
  std::ifstream in(path);
  if (!in)
    throw std::runtime_error("availability trace: cannot open " + path);
  return load_availability_trace(in);
}

void save_availability_trace(const ChurnTimeline& timeline,
                             const std::vector<NodeId>& pool,
                             std::ostream& out) {
  out << "# FTA-style availability trace: node  up-at  down-at  [crash|leave]\n";
  // Full round-trip precision: a reloaded timeline must replay the exact
  // timestamps, not a 6-significant-digit approximation of them.
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  for (const NodeId node : pool) {
    bool up = timeline.initially_member(node);
    double up_at = 0.0;
    for (const ChurnEvent& e : timeline.events()) {
      if (e.node != node) continue;
      switch (e.kind) {
        case ChurnEventKind::Crash:
        case ChurnEventKind::Leave:
          if (!up) break;  // redundant departure; membership unchanged
          out << node.value << "  " << up_at << "  " << e.at.value << "  "
              << (e.kind == ChurnEventKind::Crash ? "crash" : "leave")
              << "\n";
          up = false;
          break;
        case ChurnEventKind::Join:
        case ChurnEventKind::Rejoin:
          if (up) break;
          up = true;
          up_at = e.at.value;
          break;
      }
    }
    if (up) out << node.value << "  " << up_at << "  -\n";
  }
}

}  // namespace grasp::gridsim
