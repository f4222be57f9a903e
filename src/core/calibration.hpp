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
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/backend.hpp"
#include "core/skeleton_traits.hpp"
#include "core/task_source.hpp"
#include "obs/emit.hpp"
#include "perfmon/monitor.hpp"
#include "support/stats.hpp"

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

class Calibrator {
 public:
  Calibrator(SkeletonTraits traits, CalibrationParams params);

  /// Run Algorithm 1 on `pool`: a short driver loop over one
  /// CalibrationPass.  Consumes up to samples*|pool| tasks from `tasks`
  /// (marking them completed); when the queue runs dry a synthetic probe of
  /// the last seen shape is used instead.  `monitor` may be null
  /// (statistical strategies then degrade to TimeOnly).  `emit` (may be
  /// null) receives the pass's calibration and sample-task events.
  /// Requires an otherwise idle backend.
  [[nodiscard]] CalibrationResult run(Backend& backend,
                                      const std::vector<NodeId>& pool,
                                      TaskSource& tasks,
                                      perfmon::MonitorDaemon* monitor,
                                      obs::Emitter* emit,
                                      TokenAllocator& tokens) const;

  [[nodiscard]] const CalibrationParams& params() const { return params_; }
  [[nodiscard]] const SkeletonTraits& traits() const { return traits_; }

 private:
  SkeletonTraits traits_;
  CalibrationParams params_;
};

/// One Algorithm 1 pass as an event-driven sub-state of the engine that
/// runs it.  The constructor dispatches a sample to every node without a
/// fresh cached estimate.  The engine routes each completion of the pass's
/// operations to on() and, on churn grids, each node it declares dead to
/// abandon(); every other completion stays the engine's own.  Once done(),
/// finish() ranks the pool and selects the fittest.
class CalibrationPass {
 public:
  /// A sample given up on because its node died: the engine swallows the
  /// op's eventual completion and re-queues the real task, if it carried
  /// one.
  struct Abandoned {
    OpToken token;
    workloads::TaskSpec task;
    bool is_probe;
  };

  /// `tasks`, `monitor` (may be null), `emit` (may be null) and `tokens`
  /// must outlive the pass.
  CalibrationPass(const Calibrator& calibrator, OpPort& backend,
                  const std::vector<NodeId>& pool, TaskSource& tasks,
                  perfmon::MonitorDaemon* monitor, obs::Emitter* emit,
                  TokenAllocator& tokens);

  [[nodiscard]] bool done() const { return in_flight_.empty(); }
  [[nodiscard]] Seconds started() const { return result_.started; }
  /// Drop `node` from the ranking and return the samples it still had in
  /// flight.
  [[nodiscard]] std::vector<Abandoned> abandon(NodeId node);
  /// Advance the sample whose operation completed.  Throws
  /// std::logic_error for a token that is not the pass's.
  void on(const Completion& completion);
  /// Rank and select (the last two lines of Algorithm 1).  Call once, when
  /// done().
  [[nodiscard]] CalibrationResult finish();

 private:
  /// Phases of one node's calibration sample (input -> compute -> output).
  enum class Phase { Input, Compute, Output };
  struct SampleOp {
    NodeId node;
    Phase phase = Phase::Input;
    workloads::TaskSpec task;
    bool is_probe = false;   ///< synthetic: result does not count as a task
    Seconds sample_start;    ///< when the input transfer was submitted
    std::size_t samples_left = 0;  ///< further samples after this one
  };

  void launch_sample(NodeId node, std::size_t samples_left);

  CalibrationParams params_;
  OpPort& backend_;
  std::vector<NodeId> pool_;
  TaskSource& tasks_;
  perfmon::MonitorDaemon* monitor_;
  obs::Emitter* emit_;
  TokenAllocator& tokens_;
  NodeId root_;
  CalibrationResult result_;
  std::unordered_map<OpToken, SampleOp> in_flight_;
  std::unordered_map<NodeId, OnlineStats> spm_stats_;  // seconds-per-Mop
  // Window over which each node executed its samples, so the statistical
  // adjustment correlates times with the load the node *actually faced*.
  std::unordered_map<NodeId, Seconds> window_begin_, window_end_;
  workloads::TaskSpec probe_shape_;  // last real task seen; reused when dry
  std::unordered_set<NodeId> warm_nodes_;
  /// Nodes that died mid-pass: samples abandoned, excluded from the ranking.
  std::unordered_set<NodeId> abandoned_;
};

}  // namespace grasp::core
