#include "svc/job_backend.hpp"

namespace grasp::svc::detail {

void JobBackend::submit_compute(core::OpToken token, NodeId node, Mops work,
                                std::function<void()> body) {
  ++outstanding_;
  backend_.submit_compute(to_global(seq_, token), node, work,
                          std::move(body));
}

void JobBackend::submit_transfer(core::OpToken token, NodeId from, NodeId to,
                                 Bytes payload) {
  ++outstanding_;
  backend_.submit_transfer(to_global(seq_, token), from, to, payload);
}

void JobBackend::submit_timer(core::OpToken token, Seconds delay) {
  ++pending_timers_;
  backend_.submit_timer(to_global(seq_, token), delay);
}

bool JobBackend::cancel_timer(core::OpToken token) {
  if (!backend_.cancel_timer(to_global(seq_, token))) return false;
  --pending_timers_;
  return true;
}

void JobBackend::submit_batch(std::vector<core::OpRequest> requests) {
  for (core::OpRequest& r : requests) {
    if (r.kind == core::OpRequest::Kind::Timer)
      ++pending_timers_;
    else
      ++outstanding_;
    r.token = to_global(seq_, r.token);
  }
  backend_.submit_batch(std::move(requests));
}

double JobBackend::compute_progress(core::OpToken token) const {
  return backend_.compute_progress(to_global(seq_, token));
}

core::Completion JobBackend::deliver(core::Completion completion) {
  if (completion.is_timer)
    --pending_timers_;
  else
    --outstanding_;
  completion.token = to_local(completion.token);
  return completion;
}

}  // namespace grasp::svc::detail
