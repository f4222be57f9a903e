// Heterogeneous grid node model.
//
// A node has a base speed (Mops/s), a core count, a background-load model
// and optional downtime windows.  The central operation is
// `compute_time(work, start)`: how long `work` Mops take when started at
// `start`, integrating the processor-sharing speed across load slots and
// downtime.  This is what makes the simulated grid *dynamic* — the same task
// on the same node costs different amounts at different times.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gridsim/load_model.hpp"
#include "support/ids.hpp"

namespace grasp::gridsim {

/// Closed interval during which a node is unavailable (maintenance,
/// reclaimed by its owner, crash-and-reboot).
struct Downtime {
  Seconds start;
  Seconds end;
};

class NodeModel {
 public:
  struct Params {
    NodeId id;
    std::string name;
    SiteId site;
    double base_speed_mops = 100.0;  ///< dedicated single-task throughput
    double cores = 1.0;
    std::unique_ptr<LoadModel> load;  ///< defaults to ConstantLoad(0)
    std::vector<Downtime> downtimes;  ///< must be sorted, non-overlapping
  };

  /// Throws std::invalid_argument unless the base speed is finite and
  /// positive, cores finite and >= 1, and the downtimes finite, sorted and
  /// non-overlapping.
  explicit NodeModel(Params params);
  NodeModel(const NodeModel& other);
  NodeModel& operator=(const NodeModel& other);
  NodeModel(NodeModel&&) noexcept = default;
  NodeModel& operator=(NodeModel&&) noexcept = default;

  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] SiteId site() const { return site_; }
  [[nodiscard]] double base_speed_mops() const { return base_speed_; }
  [[nodiscard]] double cores() const { return cores_; }

  /// External load at time t (0 while down; the downtime dominates anyway).
  [[nodiscard]] double load_at(Seconds t) const;

  /// True when the node is inside a downtime window at t.
  [[nodiscard]] bool is_down(Seconds t) const;

  /// Effective Mops/s delivered to one of our tasks at time t
  /// (0 while down).
  [[nodiscard]] double effective_speed(Seconds t) const;

  /// Duration to complete `work` Mops starting at `start`, integrating
  /// speed across load slots and skipping downtime.  Returns
  /// Seconds::infinity() if the node never recovers enough to finish
  /// within the integration horizon.
  [[nodiscard]] Seconds compute_time(Mops work, Seconds start) const;

  /// Work completed in [start, until): the inverse view of compute_time,
  /// over the same slot-aligned integral, so
  /// `work_done(s, s + compute_time(w, s)) == w`.  Stall-aware by
  /// construction — spans inside downtime windows contribute nothing, which
  /// is what makes checkpoint progress honest for a chunk whose modelled
  /// duration straddles its node's crash.
  [[nodiscard]] Mops work_done(Seconds start, Seconds until) const;

  /// Replace the load model (scenario scripting).
  void set_load_model(std::unique_ptr<LoadModel> load);

  /// Current load model (for cloning/composition in scenario scripts).
  [[nodiscard]] const LoadModel& load_model() const { return *load_; }

  /// Append a finite downtime window (must begin at or after existing
  /// windows).
  void add_downtime(Downtime window);

 private:
  /// End of the downtime window containing t, or t if none.
  [[nodiscard]] Seconds skip_downtime(Seconds t) const;

  /// Re-derive steady_speed_; called wherever the load model or the
  /// downtime windows change.
  void refresh_steady_speed();

  NodeId id_;
  std::string name_;
  SiteId site_;
  double base_speed_;
  double cores_;
  std::unique_ptr<LoadModel> load_;
  std::vector<Downtime> downtimes_;
  /// The speed of a node that never changes it (a ConstantLoad and no
  /// downtime), so the integrals skip the per-slot downtime and load
  /// queries; 0 takes the general path.
  double steady_speed_ = 0.0;
};

}  // namespace grasp::gridsim
