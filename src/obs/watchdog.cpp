#include "obs/watchdog.hpp"

#include "obs/flight_recorder.hpp"
#include "support/log.hpp"

namespace grasp::obs {

Watchdog::Watchdog(const SloRules& rules, Telemetry& telemetry)
    : rules_(rules), telemetry_(&telemetry) {
  MetricsRegistry& m = telemetry_->metrics;
  c_total_ = m.counter("obs.slo.breaches.total");
  c_heartbeat_ = m.counter("obs.slo.breaches.heartbeat");
  c_detection_ = m.counter("obs.slo.breaches.detection");
  c_wasted_ = m.counter("obs.slo.breaches.wasted_rate");
  c_cal_stall_ = m.counter("obs.slo.breaches.calibration_stall");
}

void Watchdog::check_heartbeat(NodeId node, double now_s,
                               double last_heard_s) {
  if (rules_.heartbeat_staleness_s <= 0.0 || last_heard_s < 0.0) return;
  const double staleness = now_s - last_heard_s;
  if (staleness <= rules_.heartbeat_staleness_s) return;
  fire("heartbeat", c_heartbeat_, "node." + std::to_string(node.value),
       staleness, rules_.heartbeat_staleness_s, now_s, node);
}

void Watchdog::check_detection(NodeId node, double now_s, double latency_s) {
  if (rules_.detection_latency_s <= 0.0 ||
      latency_s <= rules_.detection_latency_s)
    return;
  fire("detection", c_detection_, "node." + std::to_string(node.value),
       latency_s, rules_.detection_latency_s, now_s, node);
}

void Watchdog::check_wasted_rate(double now_s, double wasted_mops,
                                 double elapsed_s) {
  if (rules_.wasted_mops_rate <= 0.0 || elapsed_s <= 0.0) return;
  const double rate = wasted_mops / elapsed_s;
  if (rate <= rules_.wasted_mops_rate) return;
  fire("wasted_rate", c_wasted_, "run", rate, rules_.wasted_mops_rate, now_s,
       NodeId::invalid());
}

void Watchdog::check_calibration_stall(double now_s, double started_s) {
  if (rules_.calibration_stall_s <= 0.0 || started_s < 0.0) return;
  const double open_for = now_s - started_s;
  if (open_for <= rules_.calibration_stall_s) return;
  fire("calibration_stall", c_cal_stall_, "run", open_for,
       rules_.calibration_stall_s, now_s, NodeId::invalid());
}

void Watchdog::fire(const char* rule, CounterHandle rule_counter,
                    std::string subject, double observed, double bound,
                    double now_s, NodeId node) {
  std::string key = rule;
  key += '|';
  key += subject;
  if (!fired_.insert(std::move(key)).second) return;  // once per subject

  telemetry_->metrics.inc(c_total_);
  telemetry_->metrics.inc(rule_counter);
  // `rule` is a string literal, satisfying the span detail contract.
  telemetry_->spans.instant("slo_breach", 0, node, TaskId::invalid(),
                            observed, rule);
  if (telemetry_->flight != nullptr)
    telemetry_->flight->note(now_s, "slo_breach", rule, node, observed);
  GRASP_LOG_WARN("slo") << rule << " SLO breached: " << subject
                        << " observed " << observed << " bound " << bound
                        << " at t=" << now_s;
  breaches_.push_back(
      {rule, std::move(subject), observed, bound, now_s});
}

}  // namespace grasp::obs
