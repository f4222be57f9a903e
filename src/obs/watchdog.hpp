// Online SLO watchdogs: declarative bounds evaluated on liveness ticks.
//
// The blame analyzer (critical_path.hpp) diagnoses a run after it ends;
// the watchdog raises the flag while the run is still live.  A caller
// declares bounds in `SloRules` (0 disables a rule), the engine hands
// them to a `Watchdog` over its run telemetry, and the existing liveness
// ticks call the check_* probes — no new threads, no timers of its own,
// and never any effect on scheduling decisions (observation only).
//
// A breach fires a structured alert exactly once per (rule, subject):
//   * a WARN log line (component "slo") — reaching the JSONL stream when
//     a JsonlWriter log sink is attached,
//   * `obs.slo.breaches.total` and `obs.slo.breaches.<rule>` counters,
//   * a "slo_breach" span instant (detail = rule, value = observed),
//   * a flight-recorder note when one is attached to the telemetry.
//
// Rules:
//   heartbeat_staleness_s  a watched node's last heartbeat is older than
//                          this (fires before the detector's timeout when
//                          set tighter — the early-warning tier)
//   detection_latency_s    crash-to-declaration latency exceeded this
//   wasted_mops_rate       wasted mops per second of run time exceeded
//   calibration_stall_s    one calibration pass has been open this long
#pragma once

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/telemetry.hpp"
#include "support/ids.hpp"

namespace grasp::obs {

/// Declarative SLO bounds; 0 disables a rule.  The task farm carries
/// these in its params (`FarmParams::slos`).
struct SloRules {
  double heartbeat_staleness_s = 0.0;
  double detection_latency_s = 0.0;
  double wasted_mops_rate = 0.0;
  double calibration_stall_s = 0.0;

  [[nodiscard]] bool any() const {
    return heartbeat_staleness_s > 0.0 || detection_latency_s > 0.0 ||
           wasted_mops_rate > 0.0 || calibration_stall_s > 0.0;
  }
};

struct SloBreach {
  std::string rule;
  std::string subject;
  double observed = 0.0;
  double bound = 0.0;
  double at_s = 0.0;
};

class Watchdog {
 public:
  /// `telemetry` must outlive the watchdog.  Counters are registered
  /// eagerly so the zero-breach case still exports zeros.
  Watchdog(const SloRules& rules, Telemetry& telemetry);

  /// Heartbeat staleness for one watched node.  `last_heard_s` < 0 means
  /// the node is not watched (the detector's unwatched sentinel) — no-op.
  void check_heartbeat(NodeId node, double now_s, double last_heard_s);
  /// Crash-to-declaration latency, probed at declaration time.
  void check_detection(NodeId node, double now_s, double latency_s);
  /// Wasted-work rate: `wasted_mops` accumulated over `elapsed_s` of run.
  void check_wasted_rate(double now_s, double wasted_mops, double elapsed_s);
  /// A calibration pass opened at `started_s` is still open at `now_s`.
  void check_calibration_stall(double now_s, double started_s);

  [[nodiscard]] const SloRules& rules() const { return rules_; }
  [[nodiscard]] const std::vector<SloBreach>& breaches() const {
    return breaches_;
  }
  [[nodiscard]] std::size_t breach_count() const { return breaches_.size(); }

 private:
  void fire(const char* rule, CounterHandle rule_counter,
            std::string subject, double observed, double bound, double now_s,
            NodeId node);

  SloRules rules_;
  Telemetry* telemetry_;
  CounterHandle c_total_;
  CounterHandle c_heartbeat_;
  CounterHandle c_detection_;
  CounterHandle c_wasted_;
  CounterHandle c_cal_stall_;
  std::set<std::string> fired_;  ///< (rule | subject) dedupe keys
  std::vector<SloBreach> breaches_;
};

}  // namespace grasp::obs
