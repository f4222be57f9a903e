// Adaptive pipeline (GRASP instantiation [7]).
//
// Stages are mapped to calibrated nodes (heaviest stage -> fittest node),
// items stream through with double buffering (each stage receives item i+1
// while computing item i), and per-stage service times feed Algorithm 2
// with the pipeline's bottleneck statistic (round-max).  When the threshold
// breaks, the bottleneck stage is remapped to the best spare node — the
// estimate extrapolates calibration fitness to current forecast load via
// the processor-sharing rule — paying an explicit state-migration transfer.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/backend.hpp"
#include "core/calibration.hpp"
#include "core/engine.hpp"
#include "core/execution_monitor.hpp"
#include "core/skeleton_traits.hpp"
#include "gridsim/grid.hpp"
#include "gridsim/trace.hpp"
#include "obs/telemetry.hpp"
#include "perfmon/monitor.hpp"
#include "resil/report.hpp"
#include "workloads/task.hpp"

namespace grasp::core {

struct PipelineParams {
  CalibrationParams calibration;
  ThresholdPolicy threshold{ThresholdPolicy::Kind::RelativeMax, 1.8, 0.0};
  perfmon::MonitorDaemon::Params monitor;

  bool adaptation_enabled = true;
  /// Only remap when the candidate looks at least this much faster.
  double remap_advantage = 1.25;

  /// Items the source keeps queued at stage 0 (back-pressure bound).
  std::size_t source_window = 4;

  /// Initial replica count per stage (empty = one replica each).  A
  /// replicated stage deals items across its replicas and resequences on
  /// exit, preserving the ordered-output trait.
  std::vector<std::size_t> stage_replicas;

  /// Structural adaptation: when a stage's *effective* service time (mean
  /// service / replicas) exceeds `replicate_imbalance_factor` times the
  /// median stage's, grow that stage by one replica on the best spare.
  /// This is the farm-the-bottleneck-stage transformation of the fully
  /// adaptive pipeline; 0 disables it.  Remapping still handles *degraded*
  /// nodes; replication handles stages that are heavy even on a good node.
  double replicate_imbalance_factor = 0.0;
  std::size_t max_replications = 8;
  /// Items a stage must process between structural actions (anti-thrash).
  std::size_t replication_cooldown_items = 20;

  /// Where items originate and results are collected; invalid = pool.front().
  NodeId source_node;

  /// On churn grids the pipeline consumes membership events: a crashed or
  /// departed replica node fails over to the best live spare (items in
  /// flight there are re-shipped), joined nodes become spares (or revive a
  /// stage that lost its only replica).  The source node must not churn.
  ///
  /// Period of the liveness tick on churn grids: a one-shot backend timer,
  /// re-armed on every firing, that polls membership even when no stage
  /// completions are flowing — so a crash that stalls the whole stream
  /// (e.g. the sole in-flight item sat on the corpse) is noticed within one
  /// period instead of at the next completion.  Zero disables the tick;
  /// membership then advances only with completions, as before.  A down
  /// stage (no spare) with nothing in flight keeps the tick waiting for a
  /// joiner for a fixed patience window (pipeline.cpp) before the run is
  /// declared wedged.
  Seconds membership_tick{1.0};

  /// Observability sink (non-owning; must outlive the run).  Null: the
  /// pipeline uses a private detail-disabled instance — counters still
  /// drive the report, histograms and spans are skipped.
  obs::Telemetry* telemetry = nullptr;
};

struct StageStats {
  StageId stage;
  NodeId node;                 ///< final primary replica's node
  std::size_t replicas = 1;    ///< final replica count
  std::size_t items = 0;
  double mean_service_s = 0.0;
  double busy_fraction = 0.0;  ///< summed over replicas (can exceed 1)
};

struct PipelineReport {
  Seconds makespan;
  std::size_t items_completed = 0;
  std::size_t remaps = 0;
  std::size_t replications = 0;
  std::size_t rounds = 0;
  double mean_latency_s = 0.0;  ///< item entry -> exit
  double p95_latency_s = 0.0;
  std::vector<StageStats> stages;
  std::vector<NodeId> final_mapping;
  resil::ResilienceReport resilience;  ///< zeros on churn-free runs
  gridsim::TraceRecorder trace;
  bool output_in_order = true;  ///< invariant check: items exit in order

  [[nodiscard]] double throughput() const {
    return makespan.value > 0.0
               ? static_cast<double>(items_completed) / makespan.value
               : 0.0;
  }
};

/// One Pipeline run as an event-driven engine (core/engine.hpp).  The
/// initial calibration is a CalibrationPass sub-state fed from on(); the
/// stream then advances one completion at a time.
class PipelineEngine : public Engine {
 public:
  /// Move the report out; call once, after finished().
  [[nodiscard]] virtual PipelineReport take_report() = 0;
};

class Pipeline {
 public:
  explicit Pipeline(PipelineParams params);

  /// Stream `item_count` items through `spec` over `pool`.  Pool must hold
  /// at least spec.depth() nodes.  A short driver loop (core::drive) over
  /// one engine().
  [[nodiscard]] PipelineReport run(Backend& backend,
                                   const gridsim::Grid& grid,
                                   const std::vector<NodeId>& pool,
                                   const workloads::PipelineSpec& spec,
                                   std::size_t item_count);

  /// One run of this pipeline as an engine that submits through
  /// `backend`.  `backend`, `grid` and `spec` must outlive it.
  [[nodiscard]] std::unique_ptr<PipelineEngine> engine(
      OpPort& backend, const gridsim::Grid& grid, std::vector<NodeId> pool,
      const workloads::PipelineSpec& spec, std::size_t item_count) const;

  [[nodiscard]] const PipelineParams& params() const { return params_; }

 private:
  PipelineParams params_;
};

}  // namespace grasp::core
