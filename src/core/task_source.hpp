// Task source: the farm's shared work queue.
//
// Supports the operations the adaptive farm needs beyond plain FIFO:
// front-of-queue reinsertion (failed/abandoned dispatches go back first so
// order skew stays bounded) and duplicate-completion tracking for straggler
// reissue (first completion wins; late twins are discarded).
#pragma once

#include <deque>

#include "support/task_id_set.hpp"
#include "workloads/task.hpp"

namespace grasp::core {

class TaskSource {
 public:
  explicit TaskSource(const workloads::TaskSet& set);

  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] std::size_t remaining() const { return queue_.size(); }
  [[nodiscard]] std::size_t total() const { return total_; }
  [[nodiscard]] std::size_t completed() const { return completed_.size(); }
  [[nodiscard]] bool all_done() const { return completed_.size() == total_; }

  /// Pop the next task.  Precondition: !empty().
  [[nodiscard]] workloads::TaskSpec pop();

  /// Return a dispatched-but-unfinished task to the *front* of the queue
  /// (used when a recalibration abandons in-flight work).
  void push_front(const workloads::TaskSpec& task);

  /// Record a completion.  Returns true when this is the first completion
  /// of the task (duplicates from straggler reissue return false).
  bool mark_completed(TaskId id) { return completed_.insert(id); }

  /// Retract a completion (farmer failover: the result died un-replicated
  /// with the coordinator, so the task must run again).  Returns true when
  /// the task was marked; the caller re-queues it via push_front.
  bool unmark_completed(TaskId id) { return completed_.erase(id); }

  [[nodiscard]] bool is_completed(TaskId id) const {
    return completed_.contains(id);
  }

 private:
  std::deque<workloads::TaskSpec> queue_;
  TaskIdSet completed_;
  std::size_t total_;
};

}  // namespace grasp::core
