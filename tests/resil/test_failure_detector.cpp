#include "resil/failure_detector.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

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
  const auto alive = [](NodeId n, Seconds t) {
    return n == NodeId{0} || t.value < 10.0;
  };
  d.advance(Seconds{9.5}, alive);
  EXPECT_TRUE(d.suspects(Seconds{9.5}).empty());
  d.advance(Seconds{14.0}, alive);
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
  d.advance(Seconds{20000.0}, [](NodeId, Seconds) { return true; });
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

/// The suspect scan the detector's oldest-heartbeat bound short-circuits:
/// every watched node, read through the public accessors.
std::vector<NodeId> scan_suspects(const FailureDetector& d, Seconds now) {
  std::vector<NodeId> out;
  for (const NodeId n : d.watched())
    if (now - d.last_heartbeat(n) > d.params().timeout) out.push_back(n);
  return out;
}

/// Seeded random watch / unwatch / heartbeat / advance sequences, with
/// advances that jump many ticks at once: after every step, suspects(now)
/// equals a full scan at the clock, at the timeout's edge and at times
/// around it.  Times sit on a quarter-second grid, so queries landing
/// exactly on `last + timeout` are common.
TEST(FailureDetector, SuspectsMatchAFullScanUnderRandomSequences) {
  constexpr std::uint64_t kNodes = 10;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    const double period = 0.5 * static_cast<double>(1 + rng.uniform_index(3));
    const double timeout = 0.25 * static_cast<double>(4 + rng.uniform_index(9));
    FailureDetector d(params(period, timeout));
    // Each node is down on a seed-dependent set of whole seconds.
    const auto alive = [seed](NodeId n, Seconds t) {
      const auto second = static_cast<std::uint64_t>(t.value);
      return ((n.value * 7919 + second * 104729 + seed) * 2654435761u) % 5 !=
             0;
    };
    double clock = 0.0;
    const auto grid = [&rng](double lo, double span_quarters) {
      return Seconds{lo + 0.25 * static_cast<double>(rng.uniform_index(
                                     static_cast<std::uint64_t>(
                                         span_quarters)))};
    };
    for (int step = 0; step < 400; ++step) {
      const NodeId node{rng.uniform_index(kNodes)};
      switch (rng.uniform_index(4)) {
        case 0:  // a watch may credit a stamp older than the clock
          d.watch(node, grid(std::max(0.0, clock - 4.0), 20));
          break;
        case 1:
          d.unwatch(node);
          break;
        case 2:
          d.heartbeat(node, grid(std::max(0.0, clock - 2.0), 16));
          break;
        case 3: {  // within a tick, or a jump across many
          const double jump = rng.bernoulli(0.2)
                                  ? 0.25 * static_cast<double>(
                                               rng.uniform_index(80))
                                  : 0.25 * static_cast<double>(
                                               rng.uniform_index(4));
          clock += jump;
          d.advance(Seconds{clock}, alive);
          break;
        }
      }
      std::vector<Seconds> queries{Seconds{clock}};
      for (const NodeId n : d.watched()) {
        const Seconds edge = d.last_heartbeat(n) + Seconds{timeout};
        queries.push_back(edge);
        queries.push_back(edge + Seconds{0.25});
      }
      for (int q = 0; q < 4; ++q) queries.push_back(grid(clock - 2.0, 60));
      for (const Seconds now : queries)
        ASSERT_EQ(d.suspects(now), scan_suspects(d, now))
            << "step " << step << " now " << now.value;
    }
  }
}

}  // namespace
}  // namespace grasp::resil
