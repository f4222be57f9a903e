#include "resil/failure_detector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <vector>

#include "gridsim/churn.hpp"
#include "support/rng.hpp"

namespace grasp::resil {
namespace {

FailureDetector::Params params(double period = 1.0, double timeout = 3.0) {
  FailureDetector::Params p;
  p.heartbeat_period = Seconds{period};
  p.timeout = Seconds{timeout};
  return p;
}

TEST(FailureDetector, FreshNodeIsNotSuspect) {
  FailureDetector d(params());
  d.watch(NodeId{0}, Seconds{10.0});
  EXPECT_TRUE(d.suspects(Seconds{12.9}).empty());
}

TEST(FailureDetector, SilenceBeyondTimeoutMakesSuspect) {
  FailureDetector d(params(1.0, 3.0));
  d.watch(NodeId{0}, Seconds{0.0});
  d.heartbeat(NodeId{0}, Seconds{5.0});
  EXPECT_TRUE(d.suspects(Seconds{8.0}).empty());  // exactly at timeout: alive
  const auto s = d.suspects(Seconds{8.1});
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], NodeId{0});
}

TEST(FailureDetector, StaleHeartbeatsIgnored) {
  FailureDetector d(params());
  d.watch(NodeId{0}, Seconds{0.0});
  d.heartbeat(NodeId{0}, Seconds{6.0});
  d.heartbeat(NodeId{0}, Seconds{2.0});  // out of order: must not rewind
  EXPECT_EQ(d.last_heartbeat(NodeId{0}).value, 6.0);
}

TEST(FailureDetector, UnwatchedNodesNeverReported) {
  FailureDetector d(params());
  d.watch(NodeId{0}, Seconds{0.0});
  d.watch(NodeId{1}, Seconds{0.0});
  d.unwatch(NodeId{0});
  d.heartbeat(NodeId{0}, Seconds{50.0});  // dropped: not watched
  EXPECT_EQ(d.last_heartbeat(NodeId{0}).value, -1.0);
  const auto s = d.suspects(Seconds{100.0});
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], NodeId{1});
  EXPECT_EQ(d.watched(), std::vector<NodeId>{NodeId{1}});
}

TEST(FailureDetector, AdvanceSynthesisesHeartbeatsWhileAlive) {
  FailureDetector d(params(1.0, 3.0));
  d.watch(NodeId{0}, Seconds{0.0});
  d.watch(NodeId{1}, Seconds{0.0});
  // Node 1 dies at t=10: it answers pings strictly before then.
  const gridsim::ChurnTimeline timeline(
      {{Seconds{10.0}, gridsim::ChurnEventKind::Crash, NodeId{1}}});
  gridsim::LivenessCursor live(timeline);
  d.advance(Seconds{9.5}, live);
  EXPECT_TRUE(d.suspects(Seconds{9.5}).empty());
  d.advance(Seconds{14.0}, live);
  EXPECT_EQ(d.last_heartbeat(NodeId{0}).value, 14.0);
  EXPECT_EQ(d.last_heartbeat(NodeId{1}).value, 9.0);  // last tick before death
  EXPECT_TRUE(d.suspects(Seconds{11.9}).empty());
  const auto s = d.suspects(Seconds{12.1});  // 9 + 3 < 12.1
  ASSERT_EQ(s.size(), 1u);
  EXPECT_EQ(s[0], NodeId{1});
}

TEST(FailureDetector, AdvanceHandlesLargeClockJumps) {
  FailureDetector d(params(1.0, 5.0));
  d.watch(NodeId{0}, Seconds{0.0});
  const gridsim::ChurnTimeline timeline;
  gridsim::LivenessCursor live(timeline);
  d.advance(Seconds{20000.0}, live);
  EXPECT_EQ(d.last_heartbeat(NodeId{0}).value, 20000.0);
  EXPECT_TRUE(d.suspects(Seconds{20004.0}).empty());
}

TEST(FailureDetector, ValidationErrors) {
  // Both fields must be finite and positive: NaN compares false against
  // any bound, a NaN period would reach advance()'s floor-to-integer cast,
  // and an infinite timeout would never suspect anyone.
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(), 0.0,
                           -1.0}) {
    SCOPED_TRACE(bad);
    FailureDetector::Params p;
    p.heartbeat_period = Seconds{bad};
    EXPECT_THROW(FailureDetector{p}, std::invalid_argument);
    p = {};
    p.timeout = Seconds{bad};
    EXPECT_THROW(FailureDetector{p}, std::invalid_argument);
  }
  EXPECT_NO_THROW(FailureDetector{FailureDetector::Params{}});
}

TEST(FailureDetector, AdvanceRejectsANonFiniteClock) {
  // A SimBackend op stranded on a dead node completes at t = +inf; the
  // detector must refuse that clock instead of flooring it to an integer.
  FailureDetector d(params(1.0, 3.0));
  d.watch(NodeId{0}, Seconds{0.0});
  d.watch(NodeId{1}, Seconds{0.0});
  const gridsim::ChurnTimeline timeline(
      {{Seconds{2.0}, gridsim::ChurnEventKind::Crash, NodeId{1}}});
  gridsim::LivenessCursor live(timeline);
  d.advance(Seconds{5.0}, live);
  const std::vector<NodeId> suspects = d.suspects(Seconds{5.5});
  ASSERT_EQ(suspects, std::vector<NodeId>{NodeId{1}});
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(d.advance(Seconds{bad}, live), std::invalid_argument);
    EXPECT_EQ(d.last_heartbeat(NodeId{0}).value, 5.0);
    EXPECT_EQ(d.last_heartbeat(NodeId{1}).value, 1.0);
    EXPECT_EQ(d.suspects(Seconds{5.5}), suspects);
  }
  // The clock was not moved: the next finite advance credits ticks 6..7.
  d.advance(Seconds{7.0}, live);
  EXPECT_EQ(d.last_heartbeat(NodeId{0}).value, 7.0);
}

/// The suspect scan the detector's oldest-heartbeat bound short-circuits:
/// every watched node, read through the public accessors.
std::vector<NodeId> scan_suspects(const FailureDetector& d, Seconds now) {
  std::vector<NodeId> out;
  for (const NodeId n : d.watched())
    if (now - d.last_heartbeat(n) > d.params().timeout) out.push_back(n);
  return out;
}

/// The detector without its per-node change cache: every advance asks the
/// timeline at every crossed tick, scanning each watched node backwards
/// from the latest tick and crediting the first at which it is a member.
class ReferenceDetector {
 public:
  explicit ReferenceDetector(FailureDetector::Params p) : p_(p) {}

  void watch(NodeId n, Seconds now) { last_[n.value] = now.value; }
  void unwatch(NodeId n) { last_.erase(n.value); }
  void heartbeat(NodeId n, Seconds at) {
    const auto it = last_.find(n.value);
    if (it != last_.end() && at.value > it->second) it->second = at.value;
  }

  void advance(Seconds now, const gridsim::ChurnTimeline& timeline) {
    if (now <= last_advance_) return;
    const double period = p_.heartbeat_period.value;
    const auto first_tick =
        static_cast<long long>(std::floor(last_advance_.value / period)) + 1;
    const auto last_tick =
        static_cast<long long>(std::floor(now.value / period));
    for (auto& [node, last] : last_) {
      for (long long k = last_tick; k >= first_tick; --k) {
        const double tick = static_cast<double>(k) * period;
        if (timeline.is_member(NodeId{node}, Seconds{tick})) {
          if (tick > last) last = tick;
          break;
        }
      }
    }
    last_advance_ = now;
  }

  [[nodiscard]] double last_heartbeat(NodeId n) const {
    const auto it = last_.find(n.value);
    return it == last_.end() ? -1.0 : it->second;
  }

  [[nodiscard]] std::vector<NodeId> suspects(Seconds now) const {
    std::vector<NodeId> out;
    for (const auto& [node, last] : last_)
      if (now.value - last > p_.timeout.value) out.push_back(NodeId{node});
    return out;
  }

 private:
  FailureDetector::Params p_;
  std::map<std::uint64_t, double> last_;  ///< watched nodes, id order
  Seconds last_advance_{0.0};
};

/// A churn schedule at whole seconds: node n is down through second s when
/// a seed-dependent hash of (n, s) says so.  Departures alternate between
/// Crash and Leave and returns between Rejoin and Join, so every event
/// kind occurs, and every event lies on the detector's tick grid.
gridsim::ChurnTimeline whole_second_churn(std::uint64_t seed,
                                          std::uint64_t nodes,
                                          std::uint64_t horizon_s) {
  using gridsim::ChurnEventKind;
  std::vector<gridsim::ChurnEvent> events;
  for (std::uint64_t n = 0; n < nodes; ++n) {
    bool up = true;
    for (std::uint64_t second = 0; second < horizon_s; ++second) {
      const bool down =
          ((n * 7919 + second * 104729 + seed) * 2654435761u) % 5 == 0;
      if (down == !up) continue;
      up = !down;
      const bool odd = (second + n) % 2 == 1;
      const ChurnEventKind kind =
          down ? (odd ? ChurnEventKind::Leave : ChurnEventKind::Crash)
               : (odd ? ChurnEventKind::Join : ChurnEventKind::Rejoin);
      events.push_back({Seconds{static_cast<double>(second)}, kind,
                        NodeId{n}});
    }
  }
  return gridsim::ChurnTimeline(std::move(events));
}

/// Seeded random watch / unwatch / heartbeat / advance sequences, with
/// advances that stay inside a tick, land exactly on the next tick or jump
/// up to 80 ticks at once, against the reference model:
/// after every step, every node's last heartbeat equals the reference's
/// bit for bit, and suspects(now) equals both the reference's and a full
/// scan at the clock, at the timeout's edge and at times around it.  With a
/// dyadic period, times sit on a quarter-second grid, so queries landing
/// exactly on `last + timeout`, and ticks landing exactly on churn events,
/// are common; the other periods put ticks at rounded multiples.
TEST(FailureDetector, SuspectsMatchAFullScanUnderRandomSequences) {
  constexpr std::uint64_t kNodes = 10;
  int short_timeouts = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    // Dyadic periods, and three whose multiples round (0.1 x 3 is not 0.3).
    constexpr double kPeriods[] = {0.5, 1.0, 1.5, 2.0, 0.1, 0.3, 0.7};
    const double period = kPeriods[rng.uniform_index(std::size(kPeriods))];
    const double timeout =
        0.25 * static_cast<double>(1 + rng.uniform_index(12));
    if (timeout < period) ++short_timeouts;
    FailureDetector d(params(period, timeout));
    ReferenceDetector ref(params(period, timeout));
    // A run's clock reaches ~1600 s on average; churn stops at 4000 s.
    const gridsim::ChurnTimeline timeline =
        whole_second_churn(seed, kNodes, 4000);
    gridsim::LivenessCursor live(timeline);
    double clock = 0.0;
    const auto grid = [&rng](double lo, double span_quarters) {
      return Seconds{lo + 0.25 * static_cast<double>(rng.uniform_index(
                                     static_cast<std::uint64_t>(
                                         span_quarters)))};
    };
    for (int step = 0; step < 400; ++step) {
      const NodeId node{rng.uniform_index(kNodes)};
      switch (rng.uniform_index(4)) {
        case 0: {  // a watch may credit a stamp older than the clock
          const Seconds at = grid(std::max(0.0, clock - 4.0), 20);
          d.watch(node, at);
          ref.watch(node, at);
          break;
        }
        case 1:
          d.unwatch(node);
          ref.unwatch(node);
          break;
        case 2: {
          const Seconds at = grid(std::max(0.0, clock - 2.0), 16);
          d.heartbeat(node, at);
          ref.heartbeat(node, at);
          break;
        }
        case 3: {  // within a tick, onto the next tick, or up to 80 ticks on
          const std::uint64_t how = rng.uniform_index(5);
          if (how == 0)
            clock += period * static_cast<double>(rng.uniform_index(81));
          else if (how == 1)
            clock = static_cast<double>(std::floor(clock / period) + 1.0) *
                    period;
          else
            clock += 0.25 * static_cast<double>(rng.uniform_index(4));
          d.advance(Seconds{clock}, live);
          ref.advance(Seconds{clock}, timeline);
          break;
        }
      }
      for (std::uint64_t n = 0; n < kNodes; ++n)
        ASSERT_EQ(d.last_heartbeat(NodeId{n}).value,
                  ref.last_heartbeat(NodeId{n}))
            << "step " << step << " node " << n;
      std::vector<Seconds> queries{Seconds{clock}};
      for (const NodeId n : d.watched()) {
        const Seconds edge = d.last_heartbeat(n) + Seconds{timeout};
        queries.push_back(edge);
        queries.push_back(edge + Seconds{0.25});
      }
      for (int q = 0; q < 4; ++q) queries.push_back(grid(clock - 2.0, 60));
      for (const Seconds now : queries) {
        ASSERT_EQ(d.suspects(now), scan_suspects(d, now))
            << "step " << step << " now " << now.value;
        ASSERT_EQ(d.suspects(now), ref.suspects(now))
            << "step " << step << " now " << now.value;
      }
    }
  }
  EXPECT_GT(short_timeouts, 0);  // some seeds time out inside one period
}

}  // namespace
}  // namespace grasp::resil
