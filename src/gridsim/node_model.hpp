// Heterogeneous grid node model.
//
// A node has a base speed (Mops/s), a core count, a background-load model
// and optional downtime windows.  The central operation is
// `compute_time(work, start)`: how long `work` Mops take when started at
// `start`, integrating the processor-sharing speed over segments of constant
// speed.  A segment ends at the load model's next change or at the next
// downtime start, so a load step or a crash takes effect at its own time,
// and a node whose load never changes finishes in one segment.  This is what
// makes the simulated grid *dynamic* — the same task on the same node costs
// different amounts at different times.
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
  /// speed across load segments and skipping downtime.  Returns
  /// Seconds::infinity() if the node never recovers enough to finish
  /// within the integration horizon.
  [[nodiscard]] Seconds compute_time(Mops work, Seconds start) const;

  /// Work completed in [start, until): the inverse view of compute_time,
  /// over the same segments, so `work_done(s, s + compute_time(w, s)) == w`
  /// up to rounding.  Stall-aware by
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
  /// A stretch of constant speed: the node delivers `speed` on
  /// [begin, end).
  struct Segment {
    double begin;
    double end;
    double speed;
  };

  /// The segment that begins at t, or at the end of the downtime covering
  /// t (chaining back-to-back windows).  It ends at the load model's next
  /// change or the next downtime start, whichever is first.
  [[nodiscard]] Segment segment_from(double t) const;

  NodeId id_;
  std::string name_;
  SiteId site_;
  double base_speed_;
  double cores_;
  std::unique_ptr<LoadModel> load_;
  std::vector<Downtime> downtimes_;
};

}  // namespace grasp::gridsim
