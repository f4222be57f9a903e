#include "resil/membership.hpp"

namespace grasp::resil {

MembershipTracker::MembershipTracker(const gridsim::ChurnTimeline& timeline,
                                     const std::vector<NodeId>& pool)
    : live_(timeline) {
  // Events at exactly t=0 shape the initial view and are still reported by
  // the first poll.
  for (const NodeId n : pool)
    view_[n] = live_.is_member(n, Seconds::zero()) ? kMember : kAbsent;
}

std::vector<gridsim::ChurnEvent> MembershipTracker::poll(Seconds now) {
  std::vector<gridsim::ChurnEvent> out;
  live_.advance_to(now);
  const auto& events = live_.timeline().events();
  for (; reported_ < live_.applied() && events[reported_].at <= now;
       ++reported_) {
    const gridsim::ChurnEvent& e = events[reported_];
    if (view_.at_or_default(e.node) == 0) continue;  // not tracked
    switch (e.kind) {
      case gridsim::ChurnEventKind::Crash:
      case gridsim::ChurnEventKind::Leave:
        view_[e.node] = kAbsent;
        break;
      case gridsim::ChurnEventKind::Join:
      case gridsim::ChurnEventKind::Rejoin:
        view_[e.node] = kMember;
        break;
    }
    out.push_back(e);
  }
  return out;
}

}  // namespace grasp::resil
