// Per-run resilience accounting, embedded in the engine reports.
//
// Since the observability layer landed, the engines no longer fill these
// structs directly: they register `ResilienceMetrics` handles in the run's
// obs::MetricsRegistry, count through those, and the report is read back
// out with `snapshot()`.  Registry and report therefore cannot disagree —
// the report IS a registry snapshot.
#pragma once

#include <cstddef>

#include "obs/metrics.hpp"

namespace grasp::resil {

struct ResilienceReport {
  std::size_t crashes_detected = 0;  ///< failure-detector declarations
  std::size_t leaves = 0;            ///< announced departures consumed
  std::size_t joins = 0;             ///< join/rejoin events consumed
  std::size_t admissions = 0;        ///< probationers admitted to the set
  std::size_t rejections = 0;        ///< probationers parked as spares
  std::size_t evictions = 0;         ///< degradation-driven shrinks
  std::size_t chunks_lost = 0;       ///< chunks invalidated by crashes
  std::size_t tasks_redispatched = 0;  ///< task re-queues caused by losses
  std::size_t zombie_completions = 0;  ///< completions discarded post-crash
  /// Truly wasted work: dispatched, lost, and not covered by a checkpoint —
  /// checkpoint-salvaged work is counted in recovered_mops, never here.
  double wasted_mops = 0.0;
  std::size_t checkpoints = 0;       ///< accepted checkpoint high-water moves
  std::size_t tasks_recovered = 0;   ///< lost-chunk tasks salvaged from ckpts
  double recovered_mops = 0.0;       ///< work salvaged from checkpoints
  /// Partial-state bytes shipped to the farmer by accepted checkpoints.
  /// The virtual-time farm accounts the volume here without charging it to
  /// the simulated clock.
  double checkpoint_state_bytes = 0.0;
  // ---- Farmer failover (replicated-farmer runs; zeros otherwise).  These
  // counters separate coordinator loss from worker loss: a worker crash
  // surfaces in crashes_detected/chunks_lost above, a farmer crash in the
  // failover columns below.
  std::size_t failovers = 0;         ///< completed standby promotions
  /// Summed crash-to-resumption latency over all completed promotions:
  /// from the last farmer heartbeat the standbys credited to the moment the
  /// reconnect handshake finished and dispatching resumed.
  double failover_latency_s = 0.0;
  std::size_t standby_recruits = 0;  ///< snapshot ships to fresh standbys
  /// Completed results retracted because they died un-replicated with the
  /// farmer; each retracted task is re-dispatched (counted above).
  std::size_t results_rolled_back = 0;
  std::size_t replication_records = 0;  ///< log records shipped to standbys
  /// Replication traffic volume (log records + result/snapshot state); like
  /// checkpoint_state_bytes, accounted but not charged to the virtual clock.
  double replication_bytes = 0.0;
  /// Total reconnect-handshake time paid across promotions: each armed
  /// handshake window costs FailoverCoordinator::Params::handshake.
  double handshake_cost_s = 0.0;
};

/// Registry handles mirroring ResilienceReport field for field (size_t
/// fields are counters under "resil.<field>", double fields gauges).
/// Engines register once per run — registration is idempotent per name,
/// so a shared registry hands back the same slots — and read the report
/// out with `snapshot`.
struct ResilienceMetrics {
  obs::CounterHandle crashes_detected;
  obs::CounterHandle leaves;
  obs::CounterHandle joins;
  obs::CounterHandle admissions;
  obs::CounterHandle rejections;
  obs::CounterHandle evictions;
  obs::CounterHandle chunks_lost;
  obs::CounterHandle tasks_redispatched;
  obs::CounterHandle zombie_completions;
  obs::GaugeHandle wasted_mops;
  obs::CounterHandle checkpoints;
  obs::CounterHandle tasks_recovered;
  obs::GaugeHandle recovered_mops;
  obs::GaugeHandle checkpoint_state_bytes;
  obs::CounterHandle failovers;
  obs::GaugeHandle failover_latency_s;
  obs::CounterHandle standby_recruits;
  obs::CounterHandle results_rolled_back;
  obs::CounterHandle replication_records;
  obs::GaugeHandle replication_bytes;
  obs::GaugeHandle handshake_cost_s;

  [[nodiscard]] static ResilienceMetrics register_in(
      obs::MetricsRegistry& metrics);
  [[nodiscard]] ResilienceReport snapshot(
      const obs::MetricsRegistry& metrics) const;
};

/// One report field: its metric name, its report member and its handle.
template <typename Value, typename Handle>
struct ResilienceField {
  const char* name;
  Value ResilienceReport::*field;
  Handle ResilienceMetrics::*handle;
};

/// The field list, in declaration order within each kind: counts are
/// registry counters, amounts registry gauges.  Registration, snapshots,
/// from_snapshot and every report comparison iterate these two tables.
inline constexpr ResilienceField<std::size_t, obs::CounterHandle>
    kResilienceCounts[] = {
        {"resil.crashes_detected", &ResilienceReport::crashes_detected,
         &ResilienceMetrics::crashes_detected},
        {"resil.leaves", &ResilienceReport::leaves,
         &ResilienceMetrics::leaves},
        {"resil.joins", &ResilienceReport::joins, &ResilienceMetrics::joins},
        {"resil.admissions", &ResilienceReport::admissions,
         &ResilienceMetrics::admissions},
        {"resil.rejections", &ResilienceReport::rejections,
         &ResilienceMetrics::rejections},
        {"resil.evictions", &ResilienceReport::evictions,
         &ResilienceMetrics::evictions},
        {"resil.chunks_lost", &ResilienceReport::chunks_lost,
         &ResilienceMetrics::chunks_lost},
        {"resil.tasks_redispatched", &ResilienceReport::tasks_redispatched,
         &ResilienceMetrics::tasks_redispatched},
        {"resil.zombie_completions", &ResilienceReport::zombie_completions,
         &ResilienceMetrics::zombie_completions},
        {"resil.checkpoints", &ResilienceReport::checkpoints,
         &ResilienceMetrics::checkpoints},
        {"resil.tasks_recovered", &ResilienceReport::tasks_recovered,
         &ResilienceMetrics::tasks_recovered},
        {"resil.failovers", &ResilienceReport::failovers,
         &ResilienceMetrics::failovers},
        {"resil.standby_recruits", &ResilienceReport::standby_recruits,
         &ResilienceMetrics::standby_recruits},
        {"resil.results_rolled_back", &ResilienceReport::results_rolled_back,
         &ResilienceMetrics::results_rolled_back},
        {"resil.replication_records", &ResilienceReport::replication_records,
         &ResilienceMetrics::replication_records},
};
inline constexpr ResilienceField<double, obs::GaugeHandle>
    kResilienceAmounts[] = {
        {"resil.wasted_mops", &ResilienceReport::wasted_mops,
         &ResilienceMetrics::wasted_mops},
        {"resil.recovered_mops", &ResilienceReport::recovered_mops,
         &ResilienceMetrics::recovered_mops},
        {"resil.checkpoint_state_bytes",
         &ResilienceReport::checkpoint_state_bytes,
         &ResilienceMetrics::checkpoint_state_bytes},
        {"resil.failover_latency_s", &ResilienceReport::failover_latency_s,
         &ResilienceMetrics::failover_latency_s},
        {"resil.replication_bytes", &ResilienceReport::replication_bytes,
         &ResilienceMetrics::replication_bytes},
        {"resil.handshake_cost_s", &ResilienceReport::handshake_cost_s,
         &ResilienceMetrics::handshake_cost_s},
};

/// Visit every field of two reports: `fn(name, a_value, b_value)`, counts
/// (std::size_t) first, then amounts (double).  Report comparisons use
/// this instead of spelling the field list again.
template <typename Fn>
void for_each_field(const ResilienceReport& a, const ResilienceReport& b,
                    Fn&& fn) {
  for (const auto& f : kResilienceCounts) fn(f.name, a.*f.field, b.*f.field);
  for (const auto& f : kResilienceAmounts) fn(f.name, a.*f.field, b.*f.field);
}

/// Rebuild a report from a generic registry snapshot by its "resil.<field>"
/// metric names.  Combined with `MetricsSnapshot::diff` this is the
/// per-run baseline subtraction: engines capture
/// `base = metrics.snapshot()` at run start and read
/// `from_snapshot(metrics.snapshot().diff(base))` at the end.  Names absent
/// from the snapshot read as zero.
[[nodiscard]] ResilienceReport from_snapshot(const obs::MetricsSnapshot& snap);

}  // namespace grasp::resil
