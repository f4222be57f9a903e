// Virtual-time backend over the gridsim models.
//
// Costs are charged analytically: a compute op finishes after
// NodeModel::compute_time (which integrates dynamic background load), a
// transfer after LinkModel::transfer_duration.  Operations on one node/link
// do not contend with each other — the engines serialise per node by
// construction (demand-driven farm, FIFO stages); ARCHITECTURE.md lists
// this among the simulator's known simplifications.
//
// Each submitted operation or timer is one event-queue entry whose payload
// is the Completion it will deliver, so `wait_next` is one pop.  Computes
// and timers are also indexed by token, so `compute_progress` and
// `cancel_timer` can read their pending entries.  Bookkeeping is
// allocation-free on the steady state: the queue's slot table and the
// token index (a FlatMap) reuse their storage once warm.
#pragma once

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
  /// One pending event.  `done.finished` is stamped from the clock when the
  /// event pops; `work` is a compute's cost, read by compute_progress.
  struct Pending {
    Completion done;
    Mops work;
    OpRequest::Kind kind;
  };
  /// A resolved submission: when it completes and what it delivers.
  struct Scheduled {
    Seconds when;
    Pending op;
  };
  using Events = gridsim::EventQueue<Pending>;

  // Resolve a submission from the models at now().  Every check that can
  // throw happens here, before enqueue changes any state.
  [[nodiscard]] Scheduled resolve(const OpRequest& r) const;
  void enqueue(const Scheduled& s);
  /// The pending compute or timer under `token`, or null.
  [[nodiscard]] const Pending* pending(OpToken token) const;

  const gridsim::Grid* grid_;
  Events events_;
  std::size_t in_flight_ = 0;
  // Undelivered computes and armed timers: token -> their event.
  FlatMap<OpToken, Events::EventId> ops_;
};

}  // namespace grasp::core
