// Hierarchical farm-of-farms: the sharded coordinator.
//
// The flat TaskFarm funnels every chunk, heartbeat and monitor sample
// through one farmer, so its event-loop load grows linearly with the
// worker count — fine for tens of nodes, the ceiling for thousands.  This
// engine splits the pool into worker *shards*, each owned by a sub-farmer
// that runs the familiar GRASP loop locally (per-shard calibration,
// demand-driven chunked dispatch, failure detection, exactly-once chunk
// ledger), while the root farms *chunks of chunks*: super-grants of tasks
// flow root -> sub-farmer on demand, results flow back in batches, and
// monitor rounds aggregate along an arity-k tree over the sub-farmers
// (tree_parent / tree_child_count below), so the root absorbs
// O(shards / arity) messages per round instead of O(workers).
//
// Failure model:
//   * workers — per-shard failure detector + chunk ledger: lost chunks
//     are surrendered exactly once and their unfinished tasks re-queued
//     locally (the root never hears about a worker crash).
//   * sub-farmers — the root's detector watches only the K sub-farmers.
//     Each sub-farmer replicates its completion log to in-shard standbys
//     (resil::ReplicaLog, flushed on every liveness tick); on a crash the
//     best-caught-up live standby is promoted *within the shard*, the
//     un-replicated suffix of the log is rolled back (retracted
//     completions re-queued, their results charged as lost) and in-flight
//     chunks of the orphaned shard are re-dispatched.  No root-side
//     standby per shard exists: promotion is a shard-local affair.
//   * the root itself is assumed reliable (the PR-5 replicated-farmer
//     machinery applies unchanged one level up; wiring it is future work).
//
// Static mode runs the same transport with adaptation off: no probes, no
// monitor rounds, fixed chunk size — the classic baseline the paper's
// GRASP rows are measured against.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/backend.hpp"
#include "gridsim/grid.hpp"
#include "gridsim/trace.hpp"
#include "obs/telemetry.hpp"
#include "resil/failure_detector.hpp"
#include "workloads/task.hpp"

namespace grasp::core {

enum class HierMode {
  Grasp,   ///< per-shard calibration + adaptive chunking + monitor rounds
  Static,  ///< fixed chunks, no probes, no adaptation
};

struct HierFarmParams {
  HierMode mode = HierMode::Grasp;

  // ---------------------------------------------------------- sharding
  /// Target workers per shard (> 0); the shard count is
  /// clamp(ceil(workers / workers_per_shard), 1, 16).  The root fan-out
  /// ceiling is fixed (hier_farm.cpp): beyond 16 x workers_per_shard
  /// workers the shards grow instead, so the root's load stays bounded
  /// either way.
  std::size_t workers_per_shard = 8;

  // ------------------------------------------------- intra-shard chunks
  /// Tasks per dispatch (> 0) in Static mode (and before a node is
  /// calibrated).
  std::size_t chunk_size = 4;
  /// Grasp: per-node chunks sized so one dispatch costs about this long
  /// (>= 0; capped at 64 tasks).
  double target_chunk_seconds = 8.0;

  // ------------------------------------------- monitoring / adaptation
  /// Grasp: period of the tree-aggregated monitor round (>= 0; 0 disables).
  /// A shard recalibrates when its observed spm drifts from the calibrated
  /// baseline by more than half (at most 16 times per run).
  Seconds monitor_period{8.0};

  // ---------------------------------------------------------- resilience
  // Active whenever the grid carries a ChurnTimeline.
  /// Worker-level detector (one instance per shard, owned by its
  /// sub-farmer) and the root's sub-farmer watch (same settings): a crash
  /// is declared within `timeout + heartbeat_period`, which also bounds
  /// promotion latency.  Both fields must be finite and positive.
  resil::FailureDetector::Params detector;
  /// Replica-log standbys per shard (clamped to the shard size - 1).
  std::size_t standby_count = 2;
  /// Pause between promotion and the new sub-farmer resuming dispatch
  /// (>= 0).
  Seconds promotion_handshake{1.0};

  /// Root location; invalid means pool.front().  The root coordinates
  /// only — it is not a member of any shard.
  NodeId root;

  /// Observability sink (non-owning; may be null).  Per-shard counters
  /// land under "shard.<k>." prefixes and each shard's chunk spans are
  /// grafted as a subtree when detail is enabled.
  obs::Telemetry* telemetry = nullptr;

  /// Throws std::invalid_argument on a zero workers_per_shard or
  /// chunk_size, a negative or non-finite target_chunk_seconds,
  /// monitor_period or promotion_handshake, or a detector whose
  /// heartbeat_period or timeout is not finite and positive.
  void validate() const;
};

/// Per-shard accounting, in shard-index order.
struct ShardSummary {
  NodeId sub_farmer;              ///< coordinator after any promotions
  std::size_t workers = 0;        ///< members at partition time
  std::size_t tasks_completed = 0;
  std::size_t grants = 0;         ///< super-grants pulled from the root
  std::size_t events = 0;         ///< completions this shard's loop handled
  std::size_t promotions = 0;
  std::size_t redispatched = 0;   ///< tasks returned to a queue by a crash
  double capacity_mops = 0.0;     ///< calibrated aggregate speed (Grasp)
};

struct HierFarmReport {
  Seconds makespan{0.0};
  std::size_t tasks_completed = 0;
  std::size_t calibration_tasks = 0;  ///< tasks consumed by probe chunks
  std::size_t shards = 0;
  /// Event attribution: every backend completion is handled by exactly
  /// one coordinator.  root_events is the scalability headline — it must
  /// stay near-constant as the worker count grows.
  std::size_t root_events = 0;
  std::size_t shard_events = 0;
  std::size_t monitor_rounds = 0;       ///< reductions that reached the root
  std::size_t reduction_messages = 0;   ///< modeled tree hops
  std::size_t recalibrations = 0;
  std::size_t promotions = 0;           ///< sub-farmer failovers
  std::size_t redispatched = 0;
  std::size_t results_lost = 0;   ///< completions retracted by a rollback
  std::size_t zombie_completions = 0;
  std::vector<ShardSummary> shard_summaries;
  gridsim::TraceRecorder trace;

  [[nodiscard]] double throughput() const {
    return makespan.value > 0.0
               ? static_cast<double>(tasks_completed) / makespan.value
               : 0.0;
  }
  [[nodiscard]] double root_events_per_vsec() const {
    return makespan.value > 0.0
               ? static_cast<double>(root_events) / makespan.value
               : 0.0;
  }
};

/// clamp(ceil(workers / workers_per_shard), 1, max_shards).
[[nodiscard]] std::size_t shard_count_for(std::size_t workers,
                                          std::size_t workers_per_shard,
                                          std::size_t max_shards);

/// LPT-greedy partition of `workers` into `shard_count` shards balanced
/// by `speeds` (parallel to `workers`): sort by speed descending (ties by
/// id), assign each to the currently lightest shard (ties by index).
/// Each shard's members come out in assignment order, so members.front()
/// is its fastest node — the initial sub-farmer.  Deterministic.
[[nodiscard]] std::vector<std::vector<NodeId>> plan_shards(
    const std::vector<NodeId>& workers, const std::vector<double>& speeds,
    std::size_t shard_count);

// Monitor-round reduction tree: an implicit arity-k heap over tree
// positions.  Position 0 reports to the root; every other position sends
// its folded subtotal to its parent once all its children have reported.

/// Parent position of `pos` (> 0) in the implicit arity-k heap tree.
[[nodiscard]] constexpr std::size_t tree_parent(std::size_t pos,
                                                std::size_t arity) {
  return (pos - 1) / arity;
}

/// Number of children of `pos` among `size` tree positions: the positions
/// pos * arity + 1 ... pos * arity + arity that exist.
[[nodiscard]] constexpr std::size_t tree_child_count(std::size_t pos,
                                                     std::size_t size,
                                                     std::size_t arity) {
  const std::size_t first = pos * arity + 1;
  return first >= size ? 0 : std::min(arity, size - first);
}

class HierFarm {
 public:
  /// Throws std::invalid_argument when params.validate() does.
  explicit HierFarm(HierFarmParams params);

  /// Execute `tasks` over `pool` (root = params.root or pool.front(),
  /// remaining members sharded).  Blocks on `backend` until every task
  /// has completed and been reported to the root.
  [[nodiscard]] HierFarmReport run(Backend& backend,
                                   const gridsim::Grid& grid,
                                   const std::vector<NodeId>& pool,
                                   const workloads::TaskSet& tasks);

  [[nodiscard]] const HierFarmParams& params() const { return params_; }

 private:
  HierFarmParams params_;
};

}  // namespace grasp::core
