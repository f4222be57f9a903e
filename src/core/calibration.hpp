// Algorithm 1: autonomic calibration.
//
// "Execute F over P nodes concurrently; collect execution times into T;
//  optionally adjust T statistically from processor and bandwidth values;
//  rank P by extrapolating performance; select the fittest."
//
// Every allocated node concurrently executes a sample of real tasks (the
// paper requires that calibration work contributes to the job).  Observed
// cost is normalised to seconds-per-Mop so irregular task sizes stay
// comparable.  Ranking strategies:
//   * TimeOnly      — raw observed seconds-per-Mop, fastest first.
//   * Univariate    — regress time on observed CPU load across the pool and
//                     extrapolate each node to its *forecast* load: a fast
//                     node that was transiently busy during the sample is
//                     credited, one about to become busy is debited.
//   * Multivariate  — same with (CPU load, 1/bandwidth) as predictors, so
//                     communication-starved placements are discounted too.
#pragma once

#include <optional>
#include <vector>

#include "core/backend.hpp"
#include "core/skeleton_traits.hpp"
#include "core/task_source.hpp"
#include "obs/emit.hpp"
#include "perfmon/monitor.hpp"

namespace grasp::core {

enum class RankingStrategy { TimeOnly, Univariate, Multivariate };

[[nodiscard]] const char* to_string(RankingStrategy s);
[[nodiscard]] RankingStrategy ranking_strategy_from_string(
    const std::string& name);

/// Pool-wide seconds-per-Mop cache shared across calibrations (and, via the
/// service layer, across tenants): one job's measurements warm another's
/// start.  `lookup` returns a usable estimate for `node` or nullopt (never
/// measured, or too stale by the implementation's policy); `store` records a
/// freshly observed value.  Implementations decide staleness and eviction —
/// the calibrator only reads fresh hits and writes fresh samples.
class SpmCache {
 public:
  virtual ~SpmCache() = default;
  [[nodiscard]] virtual std::optional<double> lookup(NodeId node,
                                                     Seconds now) const = 0;
  virtual void store(NodeId node, double spm, Seconds now) = 0;
};

struct CalibrationParams {
  RankingStrategy strategy = RankingStrategy::TimeOnly;
  /// Explicit size of the chosen set; 0 means use select_fraction.
  std::size_t select_count = 0;
  /// Fraction of the pool to keep when select_count == 0.
  double select_fraction = 0.75;
  /// When > 0, additionally drop any selected node whose adjusted
  /// seconds-per-Mop exceeds this multiple of the pool median — "fittest
  /// selection" that removes only genuinely harmful (swamped/dying)
  /// members instead of a fixed share of capacity.  At least two nodes
  /// (or one for singleton pools) are always kept.
  double exclusion_ratio = 0.0;
  /// Sample tasks per node (overrides SkeletonTraits::calibration_samples
  /// when non-zero).
  std::size_t samples_per_node = 0;
  /// Farmer/root location: sample inputs ship from here, results return
  /// here.  Invalid id means pool.front().
  NodeId root;
  /// Real per-task payload, forwarded to Backend::submit_compute.  The
  /// simulator ignores it (model-driven costs); the threaded backend runs
  /// it on the worker thread.  Null is fine.
  std::function<void(const workloads::TaskSpec&)> task_body;
  /// Shared calibration cache (non-owning; null = no cache).  Nodes with a
  /// fresh cached estimate skip their probe samples entirely (their cached
  /// seconds-per-Mop enters the ranking as if just measured) and freshly
  /// sampled nodes are stored back, so repeated calibrations over one pool
  /// converge to sampling only newcomers.
  SpmCache* spm_cache = nullptr;
  /// Gate for the cache's read side.  Engines disable it on recalibration
  /// (a threshold breach means cached conditions no longer hold) while
  /// still storing the fresh measurements for the next tenant.
  bool warm_start = true;
};

/// Per-node calibration outcome.
struct NodeScore {
  NodeId node;
  double observed_spm = 0.0;   ///< observed seconds per Mop (lower = fitter)
  double adjusted_spm = 0.0;   ///< after statistical extrapolation
  double observed_load = 0.0;  ///< monitor reading at calibration
  double observed_bandwidth = 0.0;
};

struct CalibrationResult {
  std::vector<NodeId> chosen;      ///< fittest subset, fitness order
  std::vector<NodeScore> ranking;  ///< whole pool, fitness order
  Seconds started;
  Seconds finished;
  std::size_t tasks_consumed = 0;  ///< real tasks finished during calibration
  /// Nodes whose probe was skipped because the shared SpmCache held a fresh
  /// estimate (zero without a cache).
  std::size_t nodes_warm_started = 0;
  /// Mean adjusted seconds-per-Mop over the chosen set: the baseline the
  /// execution monitor compares against.
  double baseline_spm = 0.0;

  [[nodiscard]] bool contains(NodeId node) const;
};

/// Monotonic operation-token allocator shared between calibration and the
/// engine that invoked it (one token space per run).
struct TokenAllocator {
  OpToken next = 1;
  OpToken alloc() { return next++; }
};

/// Foreign operations a calling engine deliberately left in flight while
/// calibrating — e.g. zombie chunks surrendered to crash recovery, whose
/// completions arrive whenever the dead node's outage ends.  `pending()`
/// reports how many are outstanding; `swallow(token)` consumes one foreign
/// completion (returns true when the token was foreign).
///
/// The optional churn hooks let calibration survive a node dying mid-probe
/// (otherwise the sample chain would stall for the whole outage):
/// `dead_nodes(now)` is polled after every completion and returns nodes the
/// caller has just declared dead; the calibrator abandons their pending
/// samples, handing each stalled token (plus the real task it carried, if
/// any) back through `surrender` so the caller can swallow the eventual
/// zombie completion and re-queue the task.  Abandoned nodes are dropped
/// from the ranking.
struct ForeignOps {
  std::function<std::size_t()> pending;
  std::function<bool(OpToken)> swallow;
  std::function<std::vector<NodeId>(Seconds)> dead_nodes;
  std::function<void(OpToken, NodeId, const workloads::TaskSpec&,
                     bool is_probe)>
      surrender;
};

class Calibrator {
 public:
  Calibrator(SkeletonTraits traits, CalibrationParams params);

  /// Run Algorithm 1 on `pool`.  Consumes up to samples*|pool| tasks from
  /// `tasks` (marking them completed); when the queue runs dry a synthetic
  /// probe of the last seen shape is used instead.  `monitor` may be null
  /// (statistical strategies then degrade to TimeOnly).  `emit` (may be
  /// null) receives the pass's calibration and sample-task events.
  /// Requires every backend operation in flight to be accounted for by
  /// `foreign`.
  [[nodiscard]] CalibrationResult run(Backend& backend,
                                      const std::vector<NodeId>& pool,
                                      TaskSource& tasks,
                                      perfmon::MonitorDaemon* monitor,
                                      obs::Emitter* emit,
                                      TokenAllocator& tokens,
                                      const ForeignOps* foreign = nullptr);

  [[nodiscard]] const CalibrationParams& params() const { return params_; }

 private:
  SkeletonTraits traits_;
  CalibrationParams params_;
};

}  // namespace grasp::core
