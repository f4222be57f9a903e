// Seeded churn property-test harness.
//
// Reusable fixture logic for running the adaptive farm under
// randomized-but-seeded churn timelines on SimBackend (deterministic, so
// every failure reproduces from its seed) and asserting the resilience
// invariants that must survive any scheduling change to the re-dispatch hot
// path:
//
//   * exactly-once results — every task completes exactly once, whether by
//     normal completion, straggler twin, or checkpoint recovery;
//   * ledger conservation — every task dispatched at least once, every
//     re-dispatch/recovery surfaced in the trace matches the report
//     counters, and salvage accounting (recovered vs wasted) adds up;
//   * monotone checkpoint high-water marks (unit-level, see the
//     ChunkLedger property test driving random operation sequences);
//   * no zombie double-count — discarded completions never inflate the
//     completed totals.
//
// The scenario generator derives pool shape, task mix and churn timeline
// from one seed, so "run 100 seeds" sweeps 100 different grids.
#pragma once

#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "core/task_farm.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/telemetry.hpp"
#include "workloads/generators.hpp"

namespace grasp::testing {

/// Detector settings the harness uses unless a config overrides the
/// timeout.
inline constexpr double kPropertyHeartbeat = 1.0;
inline constexpr double kPropertyTimeout = 4.0;

struct ChurnPropertyConfig {
  std::size_t tasks = 240;
  double mean_mops = 120.0;
  std::size_t nodes = 10;
  std::size_t spares = 2;
  double mtbf = 120.0;       ///< harsh: several crashes per run
  Seconds horizon{400.0};
  Seconds checkpoint_period{0.0};  ///< 0 = checkpointing off
  double evict_ratio = 0.0;        ///< 0 = eviction off
  /// 0 makes the farmer itself churnable (the replicated-farmer seeds);
  /// combine with standby_count > 0 or the coordinator loss is unhandled.
  std::size_t protected_prefix = 1;
  std::size_t standby_count = 0;  ///< hot standbys (farmer failover)
  Seconds handshake{2.0};         ///< post-promotion reconnect cost
  /// Detector silence timeout; the detection latency bounds below are
  /// stated as `timeout + kPropertyHeartbeat`.
  Seconds timeout{kPropertyTimeout};
};

/// Pool + timeline derived from one seed (different seeds give different
/// node speeds, task mixes and churn schedules).
inline gridsim::Grid make_property_grid(std::uint64_t seed,
                                        const ChurnPropertyConfig& cfg) {
  gridsim::ChurnScenarioParams cp;
  cp.grid.node_count = cfg.nodes;
  cp.grid.sites = 2;
  cp.grid.dynamics = gridsim::Dynamics::Stable;
  cp.grid.seed = 1000 + seed;
  cp.spare_nodes = cfg.spares;
  cp.mtbf = cfg.mtbf;
  cp.crash_fraction = 0.7;
  cp.rejoin_probability = 0.6;
  cp.rejoin_delay = Seconds{40.0};
  cp.horizon = cfg.horizon;
  cp.warmup = Seconds{15.0};
  cp.protected_prefix = cfg.protected_prefix;
  cp.churn_seed = 7919 * (seed + 1);
  return gridsim::make_churn_grid(cp);
}

inline core::FarmParams make_property_params(const ChurnPropertyConfig& cfg) {
  core::FarmParams p = core::make_adaptive_farm_params();
  p.chunk_size = 3;
  p.resilience.enabled = true;
  p.resilience.detector.heartbeat_period = Seconds{kPropertyHeartbeat};
  p.resilience.detector.timeout = cfg.timeout;
  p.resilience.checkpoint_period = cfg.checkpoint_period;
  p.resilience.pool.evict_ratio = cfg.evict_ratio;
  p.resilience.failover.standby_count = cfg.standby_count;
  p.resilience.failover.handshake = cfg.handshake;
  return p;
}

struct ChurnRun {
  core::FarmReport report;
  std::size_t total_tasks = 0;
  ChurnPropertyConfig cfg;
  gridsim::ChurnTimeline timeline;  ///< ground truth for latency bounds
};

inline ChurnRun run_churn_scenario(std::uint64_t seed,
                                   const ChurnPropertyConfig& cfg) {
  const gridsim::Grid grid = make_property_grid(seed, cfg);
  workloads::TaskSetParams tp;
  tp.count = cfg.tasks;
  tp.mean_mops = cfg.mean_mops;
  tp.cv = 0.6;
  tp.seed = 31 * seed + 5;
  const workloads::TaskSet tasks = workloads::make_task_set(tp);
  core::SimBackend backend(grid);
  // Detail tier: the invariants read the per-task trace records.
  obs::Telemetry tel;
  core::FarmParams params = make_property_params(cfg);
  params.telemetry = &tel;
  core::FarmReport report =
      core::TaskFarm(params).run(backend, grid, grid.node_ids(), tasks);
  return {std::move(report), cfg.tasks, cfg, *grid.churn()};
}

/// The invariants themselves.  Every EXPECT names the seed so a red run
/// reproduces immediately.
inline void check_churn_invariants(const ChurnRun& run, std::uint64_t seed) {
  using gridsim::TraceEventKind;
  const auto& r = run.report;
  const auto& res = r.resilience;
  SCOPED_TRACE(::testing::Message() << "seed=" << seed);

  // ---- exactly-once results ------------------------------------------
  // Farmer failover can retract a completion (the result died
  // un-replicated with the coordinator) and complete the task again later:
  // per task, completions net of retractions must be exactly one.  Without
  // failover no retraction ever happens and this is the old strict check.
  EXPECT_EQ(r.tasks_completed + r.calibration_tasks, run.total_tasks);
  std::unordered_map<std::uint64_t, std::size_t> completions;
  std::unordered_map<std::uint64_t, std::size_t> retractions;
  std::unordered_map<std::uint64_t, std::size_t> dispatches;
  std::unordered_map<std::uint64_t, std::size_t> redispatches;
  std::size_t recovered_events = 0;
  std::size_t retraction_events = 0;
  double recovered_mops_sum = 0.0;
  for (const auto& e : r.trace.events()) {
    switch (e.kind) {
      case TraceEventKind::TaskCompleted:
        ++completions[e.task.value];
        break;
      case TraceEventKind::TaskResultLost:
        ++retractions[e.task.value];
        ++retraction_events;
        break;
      case TraceEventKind::TaskDispatched:
      case TraceEventKind::TaskReissued:
        ++dispatches[e.task.value];
        break;
      case TraceEventKind::ChunkRedispatched:
        ++redispatches[e.task.value];
        break;
      case TraceEventKind::TaskRecovered:
        ++recovered_events;
        recovered_mops_sum += e.value;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(r.trace.count(TraceEventKind::TaskCompleted),
            run.total_tasks + retraction_events);
  EXPECT_EQ(res.results_rolled_back, retraction_events);
  EXPECT_EQ(completions.size(), run.total_tasks);
  for (const auto& [task, n] : completions) {
    SCOPED_TRACE(::testing::Message() << "task=" << task);
    // First completion wins; twins and zombies discarded; every retraction
    // is followed by exactly one fresh completion.
    EXPECT_EQ(n, 1u + retractions[task]);
  }

  // ---- ledger conservation -------------------------------------------
  // Every completed task was dispatched at least once (recovered tasks were
  // dispatched before their chunk was lost), and re-dispatches conserve
  // work: a task returned to the queue n times still completes exactly
  // once, so the redispatch counter must match the trace event-for-event.
  for (const auto& [task, n] : completions) {
    (void)n;
    SCOPED_TRACE(::testing::Message() << "task=" << task);
    EXPECT_GE(dispatches[task], 1u);
  }
  std::size_t redispatch_events = 0;
  for (const auto& [task, n] : redispatches) {
    (void)task;
    redispatch_events += n;
  }
  EXPECT_EQ(res.tasks_redispatched, redispatch_events);
  EXPECT_EQ(res.tasks_recovered, recovered_events);
  EXPECT_NEAR(res.recovered_mops, recovered_mops_sum, 1e-6);

  // ---- salvage accounting --------------------------------------------
  // Recovered work is never also wasted, and nothing is salvaged without a
  // checkpoint having been recorded first.
  EXPECT_GE(res.wasted_mops, 0.0);
  EXPECT_GE(res.recovered_mops, 0.0);
  if (res.tasks_recovered > 0) {
    EXPECT_GT(res.checkpoints, 0u);
  }

  // ---- no zombie double-count ----------------------------------------
  // Already implied by the exactly-once map; additionally the farm must
  // have actually finished in scenario time, not by waiting zombies out.
  EXPECT_GT(r.makespan.value, 0.0);
  EXPECT_LT(r.makespan.value, 2e4);

  // ---- farmer failover -----------------------------------------------
  // Coordinator-loss accounting is separate from worker loss, every
  // completed promotion is traced, and promotion latency is bounded:
  // silence detection within timeout + heartbeat_period of the crash, and
  // for promptly available standbys the handshake closes exactly
  // `handshake` later — so crash-to-resumption stays within
  // timeout + heartbeat_period + handshake.
  EXPECT_EQ(res.failovers, r.trace.count(TraceEventKind::FarmerPromoted));
  if (run.cfg.standby_count == 0) {
    EXPECT_EQ(res.failovers, 0u);
    EXPECT_EQ(retraction_events, 0u);
  }
  for (const auto& e : r.trace.events()) {
    if (e.kind == TraceEventKind::FarmerCrashDetected &&
        e.note == "heartbeat timeout") {
      // Ground truth: the latest crash of that farmer at or before the
      // detection timestamp.
      double crash_at = -1.0;
      for (const auto& c : run.timeline.events())
        if (c.kind == gridsim::ChurnEventKind::Crash && c.node == e.node &&
            c.at.value <= e.at.value + 1e-9)
          crash_at = c.at.value;
      ASSERT_GE(crash_at, 0.0);
      EXPECT_LE(e.at.value - crash_at,
                run.cfg.timeout.value + kPropertyHeartbeat + 1e-6);
    }
    if (e.kind == TraceEventKind::FarmerPromoted && e.note == "prompt") {
      EXPECT_LE(e.value, run.cfg.handshake.value + 1e-6);
    }
  }
}

/// Worker-crash detection bounds:
///
///   * no false positive — every silence-declared death corresponds to a
///     real crash at or before the detection timestamp (a timeout shorter
///     than the heartbeat cadence would fail here by evicting a live
///     node);
///   * bounded latency — detection lands within `timeout +
///     heartbeat_period` of the crash.
///
/// The bound applies to the live phase only.  Once every task is done the
/// farm cancels its liveness tick ("liveness no longer matters") and the
/// drain phase settles late twins off the clock; a node that falls silent
/// there is declared dead whenever its zombie completion surfaces, which
/// can be arbitrarily later than timeout + period.  Those drain-phase
/// detections (timestamped after the makespan) are exempt.
inline void check_detection_latency_bound(const ChurnRun& run,
                                          std::uint64_t seed) {
  using gridsim::TraceEventKind;
  SCOPED_TRACE(::testing::Message() << "seed=" << seed);
  for (const auto& e : run.report.trace.events()) {
    if (e.kind != TraceEventKind::NodeCrashDetected ||
        e.note != "heartbeat timeout")
      continue;
    if (e.at.value > run.report.makespan.value + 1e-9) continue;
    double crash_at = -1.0;
    for (const auto& c : run.timeline.events())
      if (c.kind == gridsim::ChurnEventKind::Crash && c.node == e.node &&
          c.at.value <= e.at.value + 1e-9)
        crash_at = c.at.value;
    // False eviction of a live node: silence declared without any crash.
    ASSERT_GE(crash_at, 0.0) << "node " << e.node.value
                             << " declared dead at t=" << e.at.value
                             << " without a preceding crash";
    EXPECT_LE(e.at.value - crash_at,
              run.cfg.timeout.value + kPropertyHeartbeat + 1e-6)
        << "node " << e.node.value << " crash at t=" << crash_at
        << " detected at t=" << e.at.value;
  }
}

}  // namespace grasp::testing
