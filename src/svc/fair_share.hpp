// Weighted fair share over mops: the service's allocation policy.
//
// Capacity, not node count, is the currency — a 400 Mops/s node is worth
// eight 50 Mops/s nodes — so a job's share is expressed as a mops target:
//
//   target = min(weight / (running_weights + weight), max_share) * total
//
// and the allocator grants free nodes, fastest first, until the granted
// capacity reaches the target (or the free set runs out: the policy is
// work-conserving below the max_share cap).  Node capacities come from
// the calibration cache when fresh (1 / spm) and the grid's base speed
// otherwise, so one tenant's measurements sharpen the next tenant's cut.
//
// Known limitation (busy pool): the target is a fraction of the *total*
// pool, so when most capacity is already held the target can exceed
// everything that is free, and the policy grants the entire remainder —
// a heavy job admitted late leaves nothing for the next arrival until
// someone finishes.  The policy stays work-conserving because established
// streams (and their recorded bench baselines) rely on the
// grab-the-remainder behaviour.
//
// The returned allocation preserves the order the free nodes were given
// in (the service's master pool order): engines are sensitive to pool
// order — the farmer sits on pool.front(), stages map in pool order — so
// the policy selects nodes but never reorders them.
#pragma once

#include <cstddef>
#include <vector>

#include "support/ids.hpp"

namespace grasp::svc {

/// One allocatable node with its capacity estimate in Mops/s.
struct NodeCapacity {
  NodeId node;
  double mops = 0.0;
};

/// The admission request as the policy sees it.
struct ShareRequest {
  double weight = 1.0;
  std::size_t min_nodes = 1;
  double max_share = 1.0;
};

/// The mops target the policy aims to grant `req` when jobs with summed
/// weight `running_weight_sum` already hold allocations.
[[nodiscard]] double fair_target_mops(double total_pool_mops,
                                      double running_weight_sum,
                                      const ShareRequest& req);

/// Pick an allocation for `req` out of `free_nodes` (the master pool
/// minus nodes held by running jobs, in master-pool order).  Returns the
/// chosen nodes in that same order, or an empty vector when the job
/// cannot start yet (fewer than min_nodes free nodes).
[[nodiscard]] std::vector<NodeId> pick_allocation(
    const std::vector<NodeCapacity>& free_nodes, double total_pool_mops,
    double running_weight_sum, const ShareRequest& req);

}  // namespace grasp::svc
