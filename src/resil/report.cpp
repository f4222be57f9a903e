#include "resil/report.hpp"

namespace grasp::resil {

ResilienceMetrics ResilienceMetrics::register_in(
    obs::MetricsRegistry& metrics) {
  ResilienceMetrics rm;
  for (const auto& f : kResilienceCounts) rm.*f.handle = metrics.counter(f.name);
  for (const auto& f : kResilienceAmounts) rm.*f.handle = metrics.gauge(f.name);
  return rm;
}

ResilienceReport ResilienceMetrics::snapshot(
    const obs::MetricsRegistry& metrics) const {
  ResilienceReport report;
  for (const auto& f : kResilienceCounts)
    report.*f.field = metrics.counter_value(this->*f.handle);
  for (const auto& f : kResilienceAmounts)
    report.*f.field = metrics.gauge_value(this->*f.handle);
  return report;
}

ResilienceReport from_snapshot(const obs::MetricsSnapshot& snap) {
  // First entry named `name`, or zero.
  const auto find = [](const auto& entries, const char* name) {
    for (const auto& [n, v] : entries)
      if (n == name) return v;
    return decltype(entries.front().second){};
  };
  ResilienceReport report;
  for (const auto& f : kResilienceCounts)
    report.*f.field = find(snap.counters, f.name);
  for (const auto& f : kResilienceAmounts)
    report.*f.field = find(snap.gauges, f.name);
  return report;
}

}  // namespace grasp::resil
