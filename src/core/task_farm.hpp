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

#include <optional>
#include <vector>

#include "core/backend.hpp"
#include "core/calibration.hpp"
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
  /// timeout + heartbeat_period + handshake of the crash.  The `detector`
  /// member of these params is ignored — the farmer-watch always rides the
  /// same heartbeat settings as the worker detector above.
  resil::FailoverCoordinator::Params failover;
};

/// Waste-aware dispatch economics.  Off (default), every speculative
/// decision uses the fixed-margin rules exactly as before:
/// `straggler_factor`, `tail_steal_margin` and the pool's strike-based
/// `evict_ratio`.  On, the farm maintains per-node service-time quantiles
/// (resil::CostModel, fed by calibration and every chunk completion) and
/// each speculative action must pass an explicit
/// expected-savings-vs-expected-waste test:
///
///   * reissue / tail steal — duplicate a chunk only when
///     E[saved virtual seconds] > reissue_waste_budget * E[duplicated mops],
///     where the holder's remaining time comes from its pessimistic
///     service-time quantile and the relief cost from the idle candidate's
///     median;
///   * mid-chunk eviction — abandon a crawling chunk only when staying
///     (remaining mops at the observed pace) costs more than
///     evict_break_even times redoing the un-checkpointed suffix on a
///     typical pool node;
///   * chunk exposure — under an observed crash hazard, cap each
///     dispatch's work so its expected un-checkpointed loss stays within
///     exposure_budget_mops (no observed crashes, no cap).
///
/// Decisions the budget rejects are counted (reissues_suppressed) and
/// traced (ReissueSuppressed), so the suppressed-vs-taken ratio is
/// visible per run.
struct FarmEconomics {
  bool enabled = false;
  /// Seconds of expected saving demanded per Mop of duplicated work
  /// before a speculative reissue is allowed.  0 accepts any positive
  /// saving (pure latency greed); larger values trade tail latency for
  /// less duplicated compute.  The default demands a couple of virtual
  /// seconds of saving on a typical few-hundred-Mop chunk — enough to
  /// drop break-even twins, small enough not to suppress the tail steals
  /// that pay for themselves.
  double reissue_waste_budget = 0.005;
  /// Holder-side pessimism: the holder's expected finish uses this
  /// quantile of its observed service-time distribution.
  double holder_quantile = 0.9;
  /// Relief-side realism: the idle candidate's redo cost uses this
  /// quantile of its distribution.
  double relief_quantile = 0.5;
  /// Below this many per-node samples the pool-wide distribution backs
  /// the node (and before any samples, the calibration estimate).
  std::size_t min_samples = 4;
  /// Mid-chunk eviction break-even: evict when expected remaining seconds
  /// on the holder exceed this multiple of the redo-from-checkpoint cost.
  double evict_break_even = 1.5;
  /// Expected wasted (un-checkpointed, lost-to-crash) Mops tolerated per
  /// dispatch; caps chunk size once a crash hazard has been observed.
  /// 0 disables the cap.  Sized so the cap binds only under genuinely
  /// harsh hazard rates (roughly one crash per node per couple of
  /// minutes at typical service times) — a tight budget shreds chunks
  /// into single tasks and the per-dispatch transfer overhead dwarfs the
  /// waste it avoids.
  double exposure_budget_mops = 30.0;
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

  /// Waste-aware dispatch economics (quantile cost model); defaults off,
  /// preserving the fixed-margin behaviour above bit for bit.
  FarmEconomics econ;

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
  /// Speculative reissues the economic waste budget rejected (0 unless
  /// econ.enabled).
  std::size_t reissues_suppressed = 0;
  /// Mid-chunk evictions taken by the checkpoint-vs-redo break-even rule
  /// (0 unless econ.enabled; also counted in resilience.evictions).
  std::size_t econ_evictions = 0;
  /// Dispatches whose chunk was shrunk by the crash-exposure cap.
  std::size_t econ_chunk_caps = 0;
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

class TaskFarm {
 public:
  explicit TaskFarm(FarmParams params);

  /// Execute `tasks` over `pool`.  The grid reference is used only for the
  /// monitor daemon's sensors; all costs flow through `backend`.
  ///
  /// Since the GridService layer landed this is a thin wrapper: it stands
  /// up a private single-tenant service, submits one FarmJob and waits.
  /// With exactly one job and no scheduled arrivals the service runs the
  /// engine inline on the caller's thread against the real backend, so the
  /// wrapper is observably identical to calling run_engine directly.
  [[nodiscard]] FarmReport run(Backend& backend, const gridsim::Grid& grid,
                               const std::vector<NodeId>& pool,
                               const workloads::TaskSet& tasks);

  /// The farm engine proper: the full calibrate/dispatch/adapt loop,
  /// blocking on `backend` until the task set completes.  Called by the
  /// service layer (under a job-scoped backend proxy when multiple tenants
  /// share the pool); callers that want the classic standalone behaviour
  /// use run().
  [[nodiscard]] FarmReport run_engine(Backend& backend,
                                      const gridsim::Grid& grid,
                                      const std::vector<NodeId>& pool,
                                      const workloads::TaskSet& tasks);

  [[nodiscard]] const FarmParams& params() const { return params_; }

 private:
  struct Assignment {
    std::vector<workloads::TaskSpec> chunk;
    NodeId node;
    Seconds dispatched;
    /// When the compute phase began (the input transfer is excluded from
    /// mid-chunk speed estimates; zero until the Input phase completes).
    Seconds compute_started;
    enum class Phase { Input, Compute, Output } phase = Phase::Input;
    bool is_reissue = false;
    bool is_probe = false;   ///< newcomer fast-path calibration chunk
    bool duplicated = false;  ///< a reissue twin of this chunk exists
    /// A suppressed-reissue trace/count was already emitted for this chunk
    /// (the scan re-evaluates every candidate each round; only the first
    /// rejection is reported).
    bool suppress_noted = false;
    obs::SpanId span = 0;    ///< dispatch→complete span (0 when disabled)
    Mops work() const {
      Mops total = Mops::zero();
      for (const auto& t : chunk) total += t.work;
      return total;
    }
  };

  FarmParams params_;
  SkeletonTraits traits_;
};

}  // namespace grasp::core
