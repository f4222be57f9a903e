#include "core/task_source.hpp"

#include <stdexcept>

namespace grasp::core {

TaskSource::TaskSource(const workloads::TaskSet& set)
    : queue_(set.tasks.begin(), set.tasks.end()), total_(set.tasks.size()) {
  if (queue_.empty())
    throw std::invalid_argument("TaskSource: empty task set");
}

workloads::TaskSpec TaskSource::pop() {
  if (queue_.empty()) throw std::logic_error("TaskSource::pop on empty queue");
  const workloads::TaskSpec t = queue_.front();
  queue_.pop_front();
  return t;
}

void TaskSource::push_front(const workloads::TaskSpec& task) {
  queue_.push_front(task);
}

}  // namespace grasp::core
