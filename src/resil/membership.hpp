// MembershipTracker: incremental consumer of a grid's ChurnTimeline.
//
// The timeline is an immutable schedule; engines advance a virtual (or real)
// clock.  The tracker sits between them, built on the grid's liveness
// cursor (gridsim::LivenessCursor): each poll() returns the membership
// events the cursor crossed since the previous poll, restricted to the
// engine's pool, and updates the member view the engine has been told
// about.  The cursor itself answers "who is a member now" for any node;
// the tracker answers "what changed since I last looked".
#pragma once

#include <vector>

#include "gridsim/churn.hpp"
#include "support/flat_map.hpp"

namespace grasp::resil {

class MembershipTracker {
 public:
  /// Track membership of `pool` against `timeline`.  The timeline must
  /// outlive the tracker.  The member view starts at the timeline's t=0
  /// state.
  MembershipTracker(const gridsim::ChurnTimeline& timeline,
                    const std::vector<NodeId>& pool);

  /// Events with previous-poll < at <= now for tracked nodes, in time
  /// order.  Updates the member view.  `now` must be non-decreasing.
  [[nodiscard]] std::vector<gridsim::ChurnEvent> poll(Seconds now);

  /// Member as of the last poll: a pool node present at t=0 or polled in,
  /// and not polled out since.  O(1).
  [[nodiscard]] bool is_member(NodeId node) const {
    return view_.at_or_default(node) == kMember;
  }

  /// Ground-truth liveness at the engine's clock (any node, pool or not).
  [[nodiscard]] gridsim::LivenessCursor& live() { return live_; }

 private:
  /// view_ states; untracked nodes read as the default 0.
  static constexpr unsigned char kAbsent = 1;
  static constexpr unsigned char kMember = 2;

  gridsim::LivenessCursor live_;
  NodeMap<unsigned char> view_;
  /// Events before it were reported; never past live_.applied().
  std::size_t reported_ = 0;
};

}  // namespace grasp::resil
