// Adaptive task farm (GRASP instantiation [6]).
//
// Demand-driven farmer/worker execution over a calibrated worker set, with
// the full Algorithm 1 + Algorithm 2 loop:
//
//   calibrate -> dispatch (demand-driven, chunked) -> monitor rounds ->
//   threshold breach -> drain -> recalibrate -> resume
//
// plus the two farm-specific actions its traits admit: straggler reissue
// (duplicate a late chunk on an idle worker, first completion wins) and
// adaptive chunk sizing (per-node granularity tracks forecast speed so every
// dispatch costs roughly the same wall time).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/backend.hpp"
#include "core/calibration.hpp"
#include "core/engine.hpp"
#include "core/execution_monitor.hpp"
#include "core/skeleton_traits.hpp"
#include "core/task_source.hpp"
#include "gridsim/grid.hpp"
#include "gridsim/trace.hpp"
#include "obs/telemetry.hpp"
#include "obs/watchdog.hpp"
#include "perfmon/monitor.hpp"
#include "resil/elastic_pool.hpp"
#include "resil/failover.hpp"
#include "resil/failure_detector.hpp"
#include "resil/report.hpp"

namespace grasp::core {

/// Resilience/elasticity policy for a farm run.  Active only when `enabled`
/// and the grid carries a ChurnTimeline; a churn-free grid behaves exactly
/// as before.  The correctness floor (zombie completions discarded, their
/// tasks re-queued) applies whenever the grid has a timeline, because it is
/// physics, not policy: a chunk that was on a node when the node died never
/// really completed.
struct FarmResilience {
  bool enabled = false;
  /// Checked by TaskFarm's constructor when `enabled` (Params::validate),
  /// as is `pool`.
  resil::FailureDetector::Params detector;
  resil::ElasticPool::Params pool;
  /// Rerun Algorithm 1 over the surviving pool after a detected crash.
  bool recalibrate_on_crash = true;
  /// Fast-path probe-and-admit for joined nodes (elastic growth).  Off,
  /// joiners can only enter through a full recalibration — with adaptation
  /// also off, the worker set never grows (the fixed-set ablation).
  bool elastic_join = true;
  /// Partial-result checkpoint interval.  Workers ship (chunk, tasks_done)
  /// progress piggybacked on the heartbeat path; the farmer records the
  /// high-water mark per chunk and, on a crash, re-dispatches only the
  /// unfinished suffix, charging only un-checkpointed tasks as wasted.
  /// Rounded to the nearest multiple of the detector's heartbeat_period
  /// (minimum one beat); zero disables checkpointing.  When checkpointing
  /// is on and the pool's evict_ratio is set, progress reports double as
  /// execution observations, so a persistently crawling chunk can trigger a
  /// mid-chunk eviction whose work resumes from its last checkpoint.
  Seconds checkpoint_period = Seconds::zero();
  /// Replicated-farmer failover.  With standby_count > 0 the farmer is no
  /// longer assumed reliable: hot standbys shadow its state through a
  /// replication log flushed on every heartbeat tick, and when the farmer
  /// dies the lowest-id live standby is promoted within
  /// timeout + heartbeat_period + handshake of the crash.  The standbys
  /// watch the farmer with the worker `detector` settings above.
  resil::FailoverCoordinator::Params failover;
};

struct FarmParams {
  CalibrationParams calibration;
  ThresholdPolicy threshold;
  /// Monitor daemon settings (period, forecaster, sensor noise).
  perfmon::MonitorDaemon::Params monitor;

  /// Tasks per dispatch when adaptive chunking is off.
  std::size_t chunk_size = 1;
  /// Per-node chunk sizing toward `target_chunk_seconds` per dispatch.
  bool adaptive_chunking = false;
  double target_chunk_seconds = 5.0;

  /// Master switch for Algorithm 2 (false = calibrate once, never adapt;
  /// with select_fraction = 1 this is the classic demand-driven farm).
  bool adaptation_enabled = true;

  /// Duplicate chunks that exceed straggler_factor x their expected time
  /// when idle capacity exists.
  bool reissue_stragglers = true;
  double straggler_factor = 4.0;
  /// Tail-steal margin: with the queue dry, an idle node may duplicate a
  /// chunk whose expected finish is further out than `tail_steal_margin`
  /// times the idle node's own redo cost.  Must exceed 1 (at exactly 1 the
  /// steal breaks even and every tail chunk would be duplicated).
  double tail_steal_margin = 1.5;

  /// Farmer location; invalid means pool.front().
  NodeId root;

  /// Node-churn handling (crash recovery + elastic worker set).
  FarmResilience resilience;

  /// Online SLO bounds, evaluated on the farm's liveness ticks (see
  /// obs/watchdog.hpp).  All-zero (the default) disables the watchdog
  /// entirely.  Observation only — breaches alert, they never steer.
  obs::SloRules slos;

  /// Observability sink (non-owning; must outlive the run).  The run
  /// registers its counters/histograms there and records chunk spans
  /// against the backend's clock.  Null: the farm uses a private
  /// detail-disabled instance — counters still drive the report (it is
  /// always a registry snapshot), histograms and spans are skipped.
  obs::Telemetry* telemetry = nullptr;
};

struct FarmReport {
  Seconds makespan;                ///< time when the last task first finished
  std::size_t tasks_completed = 0;
  std::size_t calibration_tasks = 0;  ///< completed inside calibrations
  std::size_t recalibrations = 0;
  std::size_t reissues = 0;
  std::size_t chunk_resizes = 0;
  std::size_t monitor_samples = 0;
  std::size_t rounds = 0;
  double final_baseline_spm = 0.0;
  std::vector<NodeId> final_chosen;
  resil::ResilienceReport resilience;  ///< zeros on churn-free runs
  gridsim::TraceRecorder trace;

  [[nodiscard]] double throughput() const {
    return makespan.value > 0.0
               ? static_cast<double>(tasks_completed) / makespan.value
               : 0.0;
  }
};

/// One TaskFarm run as an event-driven engine (core/engine.hpp): the
/// calibrate/dispatch/adapt loop, stepped one completion at a time.
/// Algorithm 1 runs as a CalibrationPass sub-state fed from on(), and a
/// non-resilient recalibration first drains the chunks in flight, also
/// from on().
class FarmEngine : public Engine {
 public:
  /// Move the report out; call once, after finished().
  [[nodiscard]] virtual FarmReport take_report() = 0;
};

class TaskFarm {
 public:
  explicit TaskFarm(FarmParams params);

  /// Execute `tasks` over `pool`.  The grid reference is used only for the
  /// monitor daemon's sensors; all costs flow through `backend`.  A short
  /// driver loop (core::drive) over one engine().
  [[nodiscard]] FarmReport run(Backend& backend, const gridsim::Grid& grid,
                               const std::vector<NodeId>& pool,
                               const workloads::TaskSet& tasks);

  /// One run of this farm as an engine that submits through `backend`.
  /// `backend` and `grid` must outlive it; `tasks` is copied.
  [[nodiscard]] std::unique_ptr<FarmEngine> engine(
      OpPort& backend, const gridsim::Grid& grid, std::vector<NodeId> pool,
      const workloads::TaskSet& tasks) const;

  [[nodiscard]] const FarmParams& params() const { return params_; }

 private:
  FarmParams params_;
};

}  // namespace grasp::core
