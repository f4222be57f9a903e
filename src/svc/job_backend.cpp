#include "svc/job_backend.hpp"

#include <algorithm>

#include "svc/grid_service.hpp"

namespace grasp::svc::detail {

// Every method serialises on the service mutex.  That is cheap here, not
// contended: the turn protocol guarantees the owning engine thread is the
// only live actor while these run (the service loop and all other job
// threads are parked, each on its own wait object), so the lock is taken
// uncontended — it exists for the acquire/release edges that make each
// turn handoff a happens-before, which is what keeps the whole service
// TSan-clean and deterministic.

Seconds JobBackend::now() const {
  const std::lock_guard<std::mutex> lock(service_.mu_);
  return service_.backend_.now();
}

void JobBackend::submit_compute(core::OpToken token, NodeId node, Mops work,
                                std::function<void()> body) {
  const std::lock_guard<std::mutex> lock(service_.mu_);
  ++job_.outstanding;
  service_.backend_.submit_compute(to_global(job_.seq, token), node, work,
                                   std::move(body));
}

void JobBackend::submit_transfer(core::OpToken token, NodeId from, NodeId to,
                                 Bytes payload) {
  const std::lock_guard<std::mutex> lock(service_.mu_);
  ++job_.outstanding;
  service_.backend_.submit_transfer(to_global(job_.seq, token), from, to,
                                    payload);
}

void JobBackend::submit_timer(core::OpToken token, Seconds delay) {
  const std::lock_guard<std::mutex> lock(service_.mu_);
  ++job_.pending_timers;
  service_.backend_.submit_timer(to_global(job_.seq, token), delay);
}

bool JobBackend::cancel_timer(core::OpToken token) {
  const std::lock_guard<std::mutex> lock(service_.mu_);
  // The firing may already have been routed to the inbox; purging it
  // there preserves the contract that a cancelled timer's completion is
  // never delivered, fired or not.
  const auto routed = std::find_if(
      job_.inbox.begin(), job_.inbox.end(), [&](const core::Completion& c) {
        return c.is_timer && c.token == token;
      });
  if (routed != job_.inbox.end()) {
    job_.inbox.erase(routed);
    --job_.pending_timers;
    return true;
  }
  if (service_.backend_.cancel_timer(to_global(job_.seq, token))) {
    --job_.pending_timers;
    return true;
  }
  return false;
}

void JobBackend::submit_batch(std::vector<core::OpRequest> requests) {
  const std::lock_guard<std::mutex> lock(service_.mu_);
  for (core::OpRequest& r : requests) {
    if (r.kind == core::OpRequest::Kind::Timer)
      ++job_.pending_timers;
    else
      ++job_.outstanding;
    r.token = to_global(job_.seq, r.token);
  }
  service_.backend_.submit_batch(std::move(requests));
}

double JobBackend::compute_progress(core::OpToken token) const {
  const std::lock_guard<std::mutex> lock(service_.mu_);
  return service_.backend_.compute_progress(to_global(job_.seq, token));
}

std::optional<core::Completion> JobBackend::wait_next() {
  std::unique_lock<std::mutex> lock(service_.mu_);
  for (;;) {
    if (job_.deliver_nullopt) return std::nullopt;  // service shutdown
    if (!job_.inbox.empty()) {
      const core::Completion c = job_.inbox.front();
      job_.inbox.pop_front();
      if (c.is_timer)
        --job_.pending_timers;
      else
        --job_.outstanding;
      return c;
    }
    // Nothing in flight and no pending timer: a standalone backend would
    // report end-of-stream here, so the proxy must too (this is the
    // engine deadlock-detection path).
    if (job_.outstanding == 0 && job_.pending_timers == 0)
      return std::nullopt;
    // Pump the backend on this turn, or park until a completion has been
    // routed here.
    service_.await_completion(lock, job_);
  }
}

std::size_t JobBackend::in_flight() const {
  const std::lock_guard<std::mutex> lock(service_.mu_);
  // `outstanding` counts submitted-but-undelivered compute/transfer ops —
  // including ones already routed to the inbox — which is exactly the
  // standalone in_flight contract the engines' drain invariants assume.
  return job_.outstanding;
}

}  // namespace grasp::svc::detail
