// TaskIdSet: the set of task ids an engine has marked completed.
//
// Task ids are assigned contiguously from zero by the generators, so the
// set is a flat byte map indexed by id, probed on every completion and
// every requeue scan; ids outside the dense range (or the invalid
// sentinel) fall back to a hash set so exotic callers keep exact
// semantics.  TaskSource's completion tracking and HierFarm's root-side
// completion marks both use it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "support/ids.hpp"

namespace grasp {

class TaskIdSet {
 public:
  [[nodiscard]] bool contains(TaskId id) const {
    if (id.value < kDenseLimit) {
      const auto index = static_cast<std::size_t>(id.value);
      return index < dense_.size() && dense_[index] != 0;
    }
    return sparse_.count(id) != 0;
  }

  /// Returns true when `id` was not yet in the set.
  bool insert(TaskId id) {
    if (id.value < kDenseLimit) {
      const auto index = static_cast<std::size_t>(id.value);
      if (index >= dense_.size()) dense_.resize(index + 1, 0);
      if (dense_[index] != 0) return false;
      dense_[index] = 1;
    } else if (!sparse_.insert(id).second) {
      return false;
    }
    ++size_;
    return true;
  }

  /// Returns true when `id` was in the set.
  bool erase(TaskId id) {
    if (id.value < kDenseLimit) {
      const auto index = static_cast<std::size_t>(id.value);
      if (index >= dense_.size() || dense_[index] == 0) return false;
      dense_[index] = 0;
    } else if (sparse_.erase(id) == 0) {
      return false;
    }
    --size_;
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  static constexpr std::uint64_t kDenseLimit = 1u << 22;

  std::vector<char> dense_;            ///< 1 = member, index = id
  std::unordered_set<TaskId> sparse_;  ///< ids outside the dense range
  std::size_t size_ = 0;
};

}  // namespace grasp
