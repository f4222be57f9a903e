// ElasticPool: the worker set as a membership-aware, self-trimming object.
//
// Calibration (Algorithm 1) selects the fittest subset; between
// recalibrations the set must still move — nodes crash or leave (remove),
// newcomers knock (probation -> fast-path admit), and members that degrade
// persistently are evicted so a full recalibration is not the only way to
// shrink.  Admission uses the one number a single probe chunk yields
// (observed seconds-per-Mop) compared against the calibrated baseline; the
// full statistical re-rank happens at the next Algorithm 1 pass.
#pragma once

#include <cstddef>
#include <unordered_map>
#include <vector>

#include "support/ids.hpp"

namespace grasp::resil {

class ElasticPool {
 public:
  struct Params {
    /// Evict a worker after kEvictAfter consecutive observations with
    /// spm > evict_ratio * baseline.  0 disables eviction.
    double evict_ratio = 0.0;

    /// Throws std::invalid_argument unless evict_ratio is finite and
    /// non-negative.  A NaN ratio would fail every strike comparison and
    /// silently turn eviction off.  The pool and TaskFarm (when resilience
    /// is enabled) call it from their constructors.
    void validate() const;
  };

  /// Admit a probationer when probe spm <= kAdmitRatio * baseline spm.
  static constexpr double kAdmitRatio = 3.0;
  /// Consecutive slow observations that evict a worker.
  static constexpr std::size_t kEvictAfter = 3;
  /// Never shrink below this many workers through eviction.
  static constexpr std::size_t kMinWorkers = 1;

  explicit ElasticPool(Params params);

  /// Install a calibrated worker set; clears probation and strike state.
  void reset(std::vector<NodeId> workers);

  [[nodiscard]] const std::vector<NodeId>& workers() const { return workers_; }
  /// Bumped by every change to workers() (reset, remove, admit, evict), so
  /// a caller that keeps per-worker positions knows when to rebuild them.
  [[nodiscard]] std::size_t revision() const { return revision_; }
  [[nodiscard]] bool contains(NodeId node) const;

  /// Remove a worker (crash/leave).  Returns true when it was present.
  bool remove(NodeId node);

  /// A joined node starts in probation: it receives probe work but is not
  /// yet part of the worker set.
  void begin_probation(NodeId node);
  [[nodiscard]] bool in_probation(NodeId node) const;
  [[nodiscard]] const std::vector<NodeId>& probationers() const {
    return probation_;
  }

  /// Fast-path calibration verdict for a probationer.  Ends probation;
  /// returns true when the node was admitted into the worker set.
  bool admit(NodeId node, double probe_spm, double baseline_spm);

  /// Execution-time observation for a worker.  Returns true when the node
  /// was evicted (persistent degradation shrank the set).
  bool observe(NodeId node, double spm, double baseline_spm);

  [[nodiscard]] std::size_t admissions() const { return admissions_; }
  [[nodiscard]] std::size_t rejections() const { return rejections_; }
  [[nodiscard]] std::size_t evictions() const { return evictions_; }

  [[nodiscard]] const Params& params() const { return params_; }

 private:
  Params params_;
  std::vector<NodeId> workers_;
  std::size_t revision_ = 0;
  std::vector<NodeId> probation_;
  std::unordered_map<NodeId, std::size_t> strikes_;
  std::size_t admissions_ = 0;
  std::size_t rejections_ = 0;
  std::size_t evictions_ = 0;
};

}  // namespace grasp::resil
