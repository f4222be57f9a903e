// Algorithm 2: threshold-triggered execution monitoring.
//
// "While not recalibration: execute F over the chosen nodes; collect the
//  execution times into T; if min T > Z set recalibration."
//
// Observations are normalised seconds-per-Mop.  A *round* completes when
// every chosen node has reported at least once since the round began; the
// poster's trigger fires when even the fastest node of the round breaches
// the threshold Z (if the *best* node is slow, the environment — not task
// irregularity — has shifted).  Variants keep the same round structure but
// compare the round mean, for the ablation study.  A staleness trigger
// covers the case Algorithm 2 cannot see: a chosen node that stops
// reporting entirely.
#pragma once

#include <string>
#include <vector>

#include "core/skeleton_traits.hpp"
#include "support/flat_map.hpp"
#include "support/ids.hpp"

namespace grasp::core {

struct ThresholdPolicy {
  enum class Kind {
    AbsoluteMin,   ///< trigger when round-min spm > z (z in seconds/Mop)
    RelativeMin,   ///< trigger when round-min spm > z * calibration baseline
    RelativeMean,  ///< trigger when round-mean spm > z * baseline (ablation)
    RelativeMax,   ///< trigger when round-max spm > z * baseline — the
                   ///< bottleneck statistic the pipeline's traits demand
  };
  Kind kind = Kind::RelativeMin;
  double z = 2.0;
  /// A round older than this many seconds with missing reporters is stale.
  /// 0 disables staleness detection.
  double stale_after = 0.0;
};

[[nodiscard]] const char* to_string(ThresholdPolicy::Kind kind);

enum class MonitorVerdict { None, ThresholdExceeded, RoundStale };

[[nodiscard]] const char* to_string(MonitorVerdict verdict);

class ExecutionMonitor {
 public:
  ExecutionMonitor(SkeletonTraits traits, ThresholdPolicy policy);

  /// Install the calibration baseline (mean chosen seconds-per-Mop) and the
  /// chosen set; starts a fresh round.
  void arm(double baseline_spm, const std::vector<NodeId>& chosen,
           Seconds now);

  /// Record one completed work unit on `node`.
  void observe(NodeId node, double seconds_per_mop, Seconds at);

  /// Evaluate Algorithm 2's condition.  Returns a verdict once per
  /// completed (or stale) round, then begins the next round.
  [[nodiscard]] MonitorVerdict check(Seconds now);

  [[nodiscard]] double baseline_spm() const { return baseline_spm_; }
  [[nodiscard]] double threshold_spm() const;
  [[nodiscard]] std::size_t rounds_completed() const { return rounds_; }
  [[nodiscard]] std::size_t triggers() const { return triggers_; }

  /// Latest observed seconds-per-Mop for `node`; NaN before any report.
  [[nodiscard]] double latest(NodeId node) const {
    return latest_.at_or_default(node);
  }

 private:
  void begin_round(Seconds now);
  /// Store `value` in `slot`, keeping `count` equal to the number of chosen
  /// nodes whose slot holds a number.
  void store(NodeId node, double& slot, double value, std::size_t& count);

  SkeletonTraits traits_;
  ThresholdPolicy policy_;
  double baseline_spm_ = 0.0;
  std::vector<NodeId> chosen_;
  // Per-node flag set by arm() for every chosen node, and the number of
  // distinct chosen nodes: check() runs on every completion, so it tests a
  // count instead of scanning the chosen set.
  NodeMap<char> is_chosen_;
  std::size_t distinct_chosen_ = 0;
  // Dense per-node slots (NaN marks "no observation").
  NodeMap<double> round_times_;  ///< this round
  NodeMap<double> latest_;       ///< across rounds
  std::size_t round_reported_ = 0;  ///< nodes heard from this round
  /// Chosen nodes with a (non-NaN) slot in round_times_ / latest_: the
  /// round is complete, or every chosen node has reported since arm(),
  /// when the count reaches distinct_chosen_.
  std::size_t chosen_in_round_ = 0;
  std::size_t chosen_reported_ = 0;
  Seconds round_started_{0.0};
  std::size_t rounds_ = 0;
  std::size_t triggers_ = 0;
};

}  // namespace grasp::core
