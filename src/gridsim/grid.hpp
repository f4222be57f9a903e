// Grid façade: nodes + topology + membership, the complete simulated
// metacomputer.
//
// The skeletons and the backends query the grid for compute and transfer
// costs; scenario scripts mutate node load models to inject the dynamism
// the adaptation experiments need.  A grid may additionally carry a
// ChurnTimeline: the membership dimension of dynamism (crash / leave / join
// / rejoin).  Engines learn of membership changes either by polling
// `is_available` / the timeline queries, or incrementally through
// resil::MembershipTracker, which turns the timeline into callbacks.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gridsim/churn.hpp"
#include "gridsim/node_model.hpp"
#include "gridsim/topology.hpp"
#include "support/ids.hpp"

namespace grasp::gridsim {

class Grid {
 public:
  Grid(std::vector<NodeModel> nodes, Topology topology);

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const std::vector<NodeModel>& nodes() const { return nodes_; }
  [[nodiscard]] const NodeModel& node(NodeId id) const;
  [[nodiscard]] NodeModel& node(NodeId id);
  [[nodiscard]] const Topology& topology() const { return topology_; }

  /// All node ids, in index order (the usual "processor pool" view).
  [[nodiscard]] std::vector<NodeId> node_ids() const;

  /// Time to move `payload` from node `from` to node `to` starting at
  /// `start`.  Zero for a node talking to itself (loopback).
  [[nodiscard]] Seconds transfer_time(NodeId from, NodeId to, Bytes payload,
                                      Seconds start) const;

  // ------------------------------------------------------------ membership
  /// Attach the run's membership schedule (scenario construction time).
  void set_churn(ChurnTimeline churn) { churn_ = std::move(churn); }

  /// The membership schedule, or nullptr for a churn-free grid.
  [[nodiscard]] const ChurnTimeline* churn() const {
    return churn_ ? &*churn_ : nullptr;
  }

  /// A node is available at t when it is a pool member (per the churn
  /// timeline, if any) and not inside a NodeModel downtime window.
  [[nodiscard]] bool is_available(NodeId id, Seconds t) const;

  /// Available node ids at time t (the elastic "processor pool" view).
  [[nodiscard]] std::vector<NodeId> available_nodes(Seconds t) const;

 private:
  std::vector<NodeModel> nodes_;
  Topology topology_;
  std::optional<ChurnTimeline> churn_;
};

/// Incremental construction of grids for tests, examples and scenarios.
class GridBuilder {
 public:
  GridBuilder();

  /// Add a site whose intra-site link has the given latency/bandwidth.
  SiteId add_site(std::string name, Seconds intra_latency = Seconds{1e-4},
                  BytesPerSecond intra_bandwidth = BytesPerSecond{1e9});

  /// Add a node to `site`; returns its NodeId.  A null load model means
  /// dedicated (zero external load).
  NodeId add_node(SiteId site, double base_speed_mops,
                  std::unique_ptr<LoadModel> load = nullptr,
                  double cores = 1.0, std::string name = {});

  void set_inter_site_link(SiteId a, SiteId b, Seconds latency,
                           BytesPerSecond bandwidth,
                           std::unique_ptr<LoadModel> contention = nullptr);
  void set_default_inter_site_link(
      Seconds latency, BytesPerSecond bandwidth,
      std::unique_ptr<LoadModel> contention = nullptr);

  [[nodiscard]] Grid build();

 private:
  std::vector<NodeModel> nodes_;
  Topology topology_;
  std::uint64_t next_link_id_ = 1;
};

}  // namespace grasp::gridsim
