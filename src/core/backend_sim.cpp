#include "core/backend_sim.hpp"

#include <algorithm>
#include <stdexcept>

namespace grasp::core {

SimBackend::SimBackend(const gridsim::Grid& grid) : grid_(&grid) {}

Seconds SimBackend::now() const { return events_.now(); }

SimBackend::Scheduled SimBackend::resolve(const OpRequest& r) const {
  const Seconds start = now();
  Pending op{Completion{r.token, NodeId::invalid(), start, start}, r.work,
             r.kind};
  Seconds duration;
  switch (r.kind) {
    case OpRequest::Kind::Compute:
      // Written to fail on NaN as well: NaN compares false both ways.
      if (!(r.work.value >= 0.0))
        throw std::invalid_argument(
            "SimBackend: negative or NaN compute work");
      op.done.node = r.node;
      duration = grid_->node(r.node).compute_time(r.work, start);
      break;
    case OpRequest::Kind::Transfer:
      if (!(r.payload.value >= 0.0))
        throw std::invalid_argument(
            "SimBackend: negative or NaN transfer size");
      op.done.node = r.to;
      duration = grid_->transfer_time(r.from, r.to, r.payload, start);
      break;
    case OpRequest::Kind::Timer:
      if (!(r.delay.value >= 0.0))
        throw std::invalid_argument("SimBackend: negative or NaN timer delay");
      op.done.is_timer = true;
      duration = r.delay;
      break;
  }
  return {start + duration, op};
}

void SimBackend::enqueue(const Scheduled& s) {
  const Events::EventId id = events_.push(s.when, s.op);
  if (s.op.kind != OpRequest::Kind::Timer) ++in_flight_;
  if (s.op.kind != OpRequest::Kind::Transfer) ops_.emplace(s.op.done.token, id);
}

void SimBackend::submit_compute(OpToken token, NodeId node, Mops work,
                                std::function<void()> body) {
  // Real payloads are the threaded backend's job; in simulation the model
  // is authoritative and any attached body is deliberately not run.
  (void)body;
  enqueue(resolve(OpRequest::compute(token, node, work)));
}

void SimBackend::submit_transfer(OpToken token, NodeId from, NodeId to,
                                 Bytes payload) {
  enqueue(resolve(OpRequest::transfer(token, from, to, payload)));
}

void SimBackend::submit_timer(OpToken token, Seconds delay) {
  enqueue(resolve(OpRequest::timer(token, delay)));
}

void SimBackend::submit_batch(std::vector<OpRequest> requests) {
  // Resolve the whole wave first, then enqueue it in order.  Times depend
  // only on the current (unchanged) virtual time and the queue assigns
  // insertion sequences in push order, so this is bit-for-bit the schedule
  // of one-at-a-time submission.  Because every throwing check runs before
  // the first push, a bad request rejects the whole wave with no effect.
  std::vector<Scheduled> wave;
  wave.reserve(requests.size());
  for (const OpRequest& r : requests) wave.push_back(resolve(r));
  for (const Scheduled& s : wave) enqueue(s);
}

const SimBackend::Pending* SimBackend::pending(OpToken token) const {
  const Events::EventId* id = ops_.find(token);
  return id == nullptr ? nullptr : events_.find(*id);
}

double SimBackend::compute_progress(OpToken token) const {
  const Pending* op = pending(token);
  if (op == nullptr || op->kind != OpRequest::Kind::Compute) return 0.0;
  if (op->work.value <= 0.0) return 1.0;
  const Mops done =
      grid_->node(op->done.node).work_done(op->done.started, now());
  return std::clamp(done.value / op->work.value, 0.0, 1.0);
}

bool SimBackend::cancel_timer(OpToken token) {
  const Pending* op = pending(token);
  if (op == nullptr || op->kind != OpRequest::Kind::Timer) return false;
  events_.cancel(ops_.take(token).second);
  return true;
}

std::optional<Completion> SimBackend::wait_next() {
  const std::optional<Pending> op = events_.pop();
  if (!op) return std::nullopt;
  Completion c = op->done;
  c.finished = now();
  if (op->kind != OpRequest::Kind::Transfer) ops_.erase(c.token);
  if (op->kind != OpRequest::Kind::Timer) --in_flight_;
  return c;
}

std::size_t SimBackend::in_flight() const { return in_flight_; }

}  // namespace grasp::core
