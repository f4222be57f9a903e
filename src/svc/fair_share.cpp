#include "svc/fair_share.hpp"

#include <algorithm>
#include <numeric>

namespace grasp::svc {

double fair_target_mops(double total_pool_mops, double running_weight_sum,
                        const ShareRequest& req) {
  const double weight_share =
      req.weight / (running_weight_sum + req.weight);
  return std::min(weight_share, req.max_share) * total_pool_mops;
}

std::vector<NodeId> pick_allocation(
    const std::vector<NodeCapacity>& free_nodes, double total_pool_mops,
    double running_weight_sum, const ShareRequest& req) {
  const std::size_t min_nodes = std::max<std::size_t>(req.min_nodes, 1);
  if (free_nodes.size() < min_nodes) return {};

  const double target =
      fair_target_mops(total_pool_mops, running_weight_sum, req);

  // Rank free nodes fastest first (ties by node id for determinism), then
  // take from the top until the granted capacity covers the target and the
  // min_nodes floor is met.
  std::vector<std::size_t> ranked(free_nodes.size());
  std::iota(ranked.begin(), ranked.end(), std::size_t{0});
  std::sort(ranked.begin(), ranked.end(),
            [&](std::size_t a, std::size_t b) {
              if (free_nodes[a].mops != free_nodes[b].mops)
                return free_nodes[a].mops > free_nodes[b].mops;
              return free_nodes[a].node.value < free_nodes[b].node.value;
            });

  std::vector<bool> take(free_nodes.size(), false);
  double granted = 0.0;
  std::size_t taken = 0;
  for (const std::size_t i : ranked) {
    if (taken >= min_nodes && granted >= target) break;
    take[i] = true;
    granted += free_nodes[i].mops;
    ++taken;
  }

  // Emit in the order the free list was given (master pool order).
  std::vector<NodeId> allocation;
  allocation.reserve(taken);
  for (std::size_t i = 0; i < free_nodes.size(); ++i)
    if (take[i]) allocation.push_back(free_nodes[i].node);
  return allocation;
}

}  // namespace grasp::svc
