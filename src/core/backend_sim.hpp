// Virtual-time backend over the gridsim models.
//
// Costs are charged analytically: a compute op finishes after
// NodeModel::compute_time (which integrates dynamic background load), a
// transfer after LinkModel::transfer_duration.  Operations on one node/link
// do not contend with each other — the engines serialise per node by
// construction (demand-driven farm, FIFO stages), which is noted in
// DESIGN.md as the simulator's one simplification.
//
// Bookkeeping is allocation-free on the steady state: delivered completions
// drain through a reusable ring over a flat vector (storage is recycled,
// never reallocated once warm), and the in-flight compute/timer tables are
// FlatMaps (O(1) find and erase, lazy compaction, iteration in order of
// last insertion) whose slot vectors and indexes are reused once warm.
#pragma once

#include <vector>

#include "core/backend.hpp"
#include "gridsim/event_queue.hpp"
#include "gridsim/grid.hpp"
#include "support/flat_map.hpp"

namespace grasp::core {

class SimBackend final : public Backend {
 public:
  explicit SimBackend(const gridsim::Grid& grid);

  [[nodiscard]] Seconds now() const override;
  void submit_compute(OpToken token, NodeId node, Mops work,
                      std::function<void()> body = {}) override;
  void submit_transfer(OpToken token, NodeId from, NodeId to,
                       Bytes payload) override;
  void submit_timer(OpToken token, Seconds delay) override;
  bool cancel_timer(OpToken token) override;
  void submit_batch(std::vector<OpRequest> requests) override;
  [[nodiscard]] double compute_progress(OpToken token) const override;
  [[nodiscard]] std::optional<Completion> wait_next() override;
  [[nodiscard]] std::size_t in_flight() const override;

  [[nodiscard]] const gridsim::Grid& grid() const { return *grid_; }

 private:
  struct ComputeWindow {
    NodeId node;
    Mops work;
    Seconds start;
  };

  void push_ready(const Completion& c);

  const gridsim::Grid* grid_;
  gridsim::EventQueue events_;
  // Delivered-but-unconsumed completions: a FIFO over a flat vector whose
  // storage is reused across drain cycles (head catches up, both reset).
  std::vector<Completion> ready_;
  std::size_t ready_head_ = 0;
  std::size_t in_flight_ = 0;
  // Armed timers: token -> scheduled event, so cancel_timer can remove the
  // event itself (a cancelled event neither runs nor advances the clock).
  FlatMap<OpToken, gridsim::EventQueue::EventId> timers_;
  // Undelivered compute ops, so compute_progress can report the fraction of
  // work the node's model has actually processed mid-op (stall-aware: spans
  // inside downtime windows contribute nothing).
  FlatMap<OpToken, ComputeWindow> computes_;
};

}  // namespace grasp::core
