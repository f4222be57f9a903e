#include "core/backend_sim.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "gridsim/scenarios.hpp"

namespace grasp::core {
namespace {

TEST(SimBackend, ComputeDurationMatchesModel) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  SimBackend backend(grid);
  backend.submit_compute(1, NodeId{0}, Mops{250.0});
  const auto c = backend.wait_next();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->token, 1u);
  EXPECT_EQ(c->node, NodeId{0});
  EXPECT_NEAR(c->duration().value, 2.5, 1e-9);
  EXPECT_NEAR(backend.now().value, 2.5, 1e-9);
}

TEST(SimBackend, TransferDurationMatchesModel) {
  gridsim::GridBuilder b;
  const SiteId s0 = b.add_site("a", Seconds{0.001}, BytesPerSecond{1e6});
  const NodeId n0 = b.add_node(s0, 100.0);
  const NodeId n1 = b.add_node(s0, 100.0);
  const gridsim::Grid grid = b.build();
  SimBackend backend(grid);
  backend.submit_transfer(7, n0, n1, Bytes{2e6});
  const auto c = backend.wait_next();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->node, n1);
  EXPECT_NEAR(c->duration().value, 2.001, 1e-9);
}

TEST(SimBackend, CompletionsArriveInTimeOrder) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(3, 100.0);
  SimBackend backend(grid);
  backend.submit_compute(1, NodeId{0}, Mops{300.0});  // 3 s
  backend.submit_compute(2, NodeId{1}, Mops{100.0});  // 1 s
  backend.submit_compute(3, NodeId{2}, Mops{200.0});  // 2 s
  EXPECT_EQ(backend.in_flight(), 3u);
  EXPECT_EQ(backend.wait_next()->token, 2u);
  EXPECT_EQ(backend.wait_next()->token, 3u);
  EXPECT_EQ(backend.wait_next()->token, 1u);
  EXPECT_EQ(backend.in_flight(), 0u);
}

TEST(SimBackend, WaitOnEmptyReturnsNullopt) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  SimBackend backend(grid);
  EXPECT_FALSE(backend.wait_next().has_value());
}

TEST(SimBackend, VirtualTimeAdvancesOnlyWithCompletions) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  SimBackend backend(grid);
  EXPECT_DOUBLE_EQ(backend.now().value, 0.0);
  backend.submit_compute(1, NodeId{0}, Mops{100.0});
  EXPECT_DOUBLE_EQ(backend.now().value, 0.0);  // submission is instantaneous
  (void)backend.wait_next();
  EXPECT_DOUBLE_EQ(backend.now().value, 1.0);
}

TEST(SimBackend, DynamicLoadChangesComputeCost) {
  gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  gridsim::inject_load_step_on(grid, NodeId{0}, Seconds{1.0}, 1.0);
  SimBackend backend(grid);
  // 200 Mops from t=0: 100 Mops in first second, then half speed -> 3 s.
  backend.submit_compute(1, NodeId{0}, Mops{200.0});
  EXPECT_NEAR(backend.wait_next()->duration().value, 3.0, 1e-6);
}

TEST(SimBackend, LoopbackTransferIsInstant) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  SimBackend backend(grid);
  backend.submit_transfer(1, NodeId{0}, NodeId{0}, Bytes{1e9});
  EXPECT_DOUBLE_EQ(backend.wait_next()->duration().value, 0.0);
}

TEST(SimBackend, BodiesAreIgnoredInSimulation) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  SimBackend backend(grid);
  bool ran = false;
  backend.submit_compute(1, NodeId{0}, Mops{1.0}, [&] { ran = true; });
  (void)backend.wait_next();
  EXPECT_FALSE(ran);  // the model is authoritative in virtual time
}

// ---- Timer facility -------------------------------------------------------

TEST(SimBackend, TimerFiresAtItsDeadline) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  SimBackend backend(grid);
  backend.submit_timer(7, Seconds{2.5});
  EXPECT_EQ(backend.in_flight(), 0u);  // timers are not operations
  const auto c = backend.wait_next();
  ASSERT_TRUE(c.has_value());
  EXPECT_TRUE(c->is_timer);
  EXPECT_EQ(c->token, 7u);
  EXPECT_FALSE(c->node.is_valid());
  EXPECT_NEAR(c->started.value, 0.0, 1e-12);
  EXPECT_NEAR(c->finished.value, 2.5, 1e-12);
  EXPECT_NEAR(backend.now().value, 2.5, 1e-12);
  EXPECT_FALSE(backend.wait_next().has_value());
}

TEST(SimBackend, TimersDeliverInDeadlineOrder) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  SimBackend backend(grid);
  backend.submit_timer(3, Seconds{3.0});
  backend.submit_timer(1, Seconds{1.0});
  backend.submit_timer(2, Seconds{2.0});
  EXPECT_EQ(backend.wait_next()->token, 1u);
  EXPECT_EQ(backend.wait_next()->token, 2u);
  EXPECT_EQ(backend.wait_next()->token, 3u);
}

TEST(SimBackend, TimerInterleavesWithOperations) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  SimBackend backend(grid);
  backend.submit_compute(1, NodeId{0}, Mops{100.0});  // completes at t=1
  backend.submit_timer(2, Seconds{0.5});
  backend.submit_timer(3, Seconds{1.5});
  const auto first = backend.wait_next();
  EXPECT_EQ(first->token, 2u);
  EXPECT_TRUE(first->is_timer);
  const auto second = backend.wait_next();
  EXPECT_EQ(second->token, 1u);
  EXPECT_FALSE(second->is_timer);
  EXPECT_EQ(backend.wait_next()->token, 3u);
  EXPECT_EQ(backend.in_flight(), 0u);
}

TEST(SimBackend, CancelledTimerNeverFires) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  SimBackend backend(grid);
  backend.submit_timer(5, Seconds{1.0});
  EXPECT_TRUE(backend.cancel_timer(5));
  EXPECT_FALSE(backend.cancel_timer(5));  // already cancelled
  EXPECT_FALSE(backend.wait_next().has_value());
  EXPECT_DOUBLE_EQ(backend.now().value, 0.0);
}

TEST(SimBackend, CancelledTimerDoesNotDelayOperations) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  SimBackend backend(grid);
  backend.submit_timer(9, Seconds{0.25});
  backend.submit_compute(1, NodeId{0}, Mops{100.0});
  EXPECT_TRUE(backend.cancel_timer(9));
  const auto c = backend.wait_next();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->token, 1u);
  EXPECT_FALSE(backend.wait_next().has_value());
}

TEST(SimBackend, CancelUnknownTimerReturnsFalse) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  SimBackend backend(grid);
  EXPECT_FALSE(backend.cancel_timer(42));
}

TEST(SimBackend, RearmedTimerDrivesAPeriodicTick) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  SimBackend backend(grid);
  OpToken next = 1;
  backend.submit_timer(next, Seconds{1.0});
  for (int tick = 1; tick <= 4; ++tick) {
    const auto c = backend.wait_next();
    ASSERT_TRUE(c.has_value());
    EXPECT_TRUE(c->is_timer);
    EXPECT_EQ(c->token, next);
    EXPECT_NEAR(backend.now().value, static_cast<double>(tick), 1e-9);
    backend.submit_timer(++next, Seconds{1.0});
  }
  EXPECT_TRUE(backend.cancel_timer(next));
  EXPECT_FALSE(backend.wait_next().has_value());
}

TEST(SimBackend, NegativeTimerDelayThrows) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  SimBackend backend(grid);
  EXPECT_THROW(backend.submit_timer(1, Seconds{-1.0}), std::invalid_argument);
}

TEST(SimBackend, ComputeProgressTracksElapsedWork) {
  // 100 Mops/s node, 200 Mops op: a timer firing at 0.5 s must observe a
  // quarter of the work done; unknown tokens and transfers report 0.
  const gridsim::Grid grid = gridsim::make_uniform_grid(2, 100.0);
  SimBackend backend(grid);
  backend.submit_compute(1, NodeId{0}, Mops{200.0});
  EXPECT_DOUBLE_EQ(backend.compute_progress(1), 0.0);  // nothing elapsed yet
  EXPECT_DOUBLE_EQ(backend.compute_progress(42), 0.0);
  backend.submit_timer(9, Seconds{0.5});
  const auto tick = backend.wait_next();
  ASSERT_TRUE(tick.has_value() && tick->is_timer);
  EXPECT_NEAR(backend.compute_progress(1), 0.25, 1e-9);
  const auto c = backend.wait_next();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->token, 1u);
  // Delivered ops no longer report progress.
  EXPECT_DOUBLE_EQ(backend.compute_progress(1), 0.0);
}

TEST(SimBackend, ComputeProgressIsStallAwareDuringDowntime) {
  // The node goes down mid-op: progress freezes at the work done by the
  // crash instant rather than tracking the stall-inflated wall duration.
  // This is what keeps checkpoint salvage honest — a chunk straddling its
  // node's outage reports real work, not elapsed time.
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  b.add_node(s, 100.0);
  gridsim::Grid grid = b.build();
  grid.node(NodeId{0}).add_downtime({Seconds{0.5}, Seconds{10.5}});
  SimBackend backend(grid);
  backend.submit_compute(1, NodeId{0}, Mops{100.0});  // 0.5 s + 10 s stall
  backend.submit_timer(8, Seconds{0.25});
  ASSERT_TRUE(backend.wait_next().has_value());
  EXPECT_NEAR(backend.compute_progress(1), 0.25, 1e-9);
  backend.submit_timer(9, Seconds{5.75});  // t = 6, deep inside the outage
  ASSERT_TRUE(backend.wait_next().has_value());
  EXPECT_NEAR(backend.compute_progress(1), 0.5, 1e-9);  // frozen at 50 Mops
  const auto c = backend.wait_next();
  ASSERT_TRUE(c.has_value());
  EXPECT_NEAR(c->duration().value, 11.0, 1e-9);  // outage included
}

TEST(SimBackend, TransferTokensReportNoComputeProgress) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(2, 100.0);
  SimBackend backend(grid);
  backend.submit_transfer(3, NodeId{0}, NodeId{1}, Bytes{1e6});
  EXPECT_DOUBLE_EQ(backend.compute_progress(3), 0.0);
  ASSERT_TRUE(backend.wait_next().has_value());
}

TEST(SimBackend, CancelTimerOnAComputeTokenLeavesTheCompute) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  SimBackend backend(grid);
  backend.submit_compute(4, NodeId{0}, Mops{100.0});
  EXPECT_FALSE(backend.cancel_timer(4));
  EXPECT_EQ(backend.in_flight(), 1u);
  const auto c = backend.wait_next();
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->token, 4u);
  EXPECT_FALSE(c->is_timer);
  EXPECT_DOUBLE_EQ(c->finished.value, 1.0);
}

TEST(SimBackend, TimerTokensReportNoComputeProgress) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  SimBackend backend(grid);
  backend.submit_compute(1, NodeId{0}, Mops{400.0});
  backend.submit_timer(2, Seconds{1.0});
  backend.submit_timer(3, Seconds{3.0});
  ASSERT_TRUE(backend.wait_next()->is_timer);  // t = 1
  EXPECT_DOUBLE_EQ(backend.compute_progress(3), 0.0);
  EXPECT_NEAR(backend.compute_progress(1), 0.25, 1e-12);
}

TEST(SimBackend, CancelTimerAfterDeliveryReturnsFalse) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(1, 100.0);
  SimBackend backend(grid);
  backend.submit_timer(6, Seconds{1.0});
  backend.submit_compute(7, NodeId{0}, Mops{200.0});
  const auto fired = backend.wait_next();
  ASSERT_TRUE(fired.has_value() && fired->is_timer);
  EXPECT_FALSE(backend.cancel_timer(6));
  EXPECT_EQ(backend.wait_next()->token, 7u);
  EXPECT_FALSE(backend.wait_next().has_value());
}

TEST(SimBackend, NaNInputsAreRejectedBeforeAnyStateChanges) {
  // NaN would otherwise schedule silently: a NaN delay sorts after every
  // finite event without moving the clock, and NaN work finishes at +inf.
  const gridsim::Grid grid = gridsim::make_uniform_grid(2, 100.0);
  SimBackend backend(grid);
  const double nan = std::nan("");
  EXPECT_THROW(backend.submit_timer(1, Seconds{nan}), std::invalid_argument);
  EXPECT_THROW(backend.submit_compute(2, NodeId{0}, Mops{nan}),
               std::invalid_argument);
  EXPECT_THROW(backend.submit_transfer(3, NodeId{0}, NodeId{1}, Bytes{nan}),
               std::invalid_argument);
  // Loopback transfers cost nothing, yet a NaN size is still rejected.
  EXPECT_THROW(backend.submit_transfer(4, NodeId{0}, NodeId{0}, Bytes{nan}),
               std::invalid_argument);
  EXPECT_EQ(backend.in_flight(), 0u);
  EXPECT_DOUBLE_EQ(backend.compute_progress(2), 0.0);
  EXPECT_FALSE(backend.cancel_timer(1));
  EXPECT_FALSE(backend.wait_next().has_value());
  EXPECT_DOUBLE_EQ(backend.now().value, 0.0);
}

TEST(SimBackend, NegativeCostsAreRejectedBeforeAnyStateChanges) {
  // Negative work would finish before it started, and a negative size
  // would shorten the link's latency.
  const gridsim::Grid grid = gridsim::make_uniform_grid(2, 100.0);
  SimBackend backend(grid);
  EXPECT_THROW(backend.submit_compute(2, NodeId{0}, Mops{-1.0}),
               std::invalid_argument);
  EXPECT_THROW(backend.submit_transfer(3, NodeId{0}, NodeId{1}, Bytes{-1.0}),
               std::invalid_argument);
  EXPECT_THROW(backend.submit_transfer(4, NodeId{0}, NodeId{0}, Bytes{-1.0}),
               std::invalid_argument);
  EXPECT_EQ(backend.in_flight(), 0u);
  EXPECT_DOUBLE_EQ(backend.compute_progress(2), 0.0);
  EXPECT_FALSE(backend.wait_next().has_value());
  EXPECT_DOUBLE_EQ(backend.now().value, 0.0);
}

TEST(SimBackend, ZeroCostsStayLegal) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(2, 100.0);
  SimBackend backend(grid);
  backend.submit_compute(1, NodeId{0}, Mops{0.0});
  backend.submit_transfer(2, NodeId{0}, NodeId{1}, Bytes{0.0});
  EXPECT_EQ(backend.in_flight(), 2u);
  std::vector<OpToken> seen;
  while (const auto c = backend.wait_next()) {
    EXPECT_GE(c->finished.value, c->started.value);
    seen.push_back(c->token);
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<OpToken>{1, 2}));
}

// ---- Batch submission -------------------------------------------------------

// Two nodes on one site whose link moves 5e5 bytes in exactly 1 s (0.5 s
// latency + 0.5 s at 1e6 B/s), the time a 100 Mops op takes on either node.
gridsim::Grid two_node_site() {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a", Seconds{0.5}, BytesPerSecond{1e6});
  b.add_node(s, 100.0);
  b.add_node(s, 100.0);
  return b.build();
}

// A wave mixing every kind, most of it due at the same instant.
std::vector<OpRequest> mixed_wave() {
  std::vector<OpRequest> wave;
  wave.push_back(OpRequest::timer(10, Seconds{1.0}));
  wave.push_back(OpRequest::compute(11, NodeId{0}, Mops{100.0}));
  wave.push_back(OpRequest::transfer(12, NodeId{0}, NodeId{1}, Bytes{5e5}));
  wave.push_back(OpRequest::compute(13, NodeId{1}, Mops{100.0}));
  wave.push_back(OpRequest::transfer(14, NodeId{1}, NodeId{1}, Bytes{1e9}));
  wave.push_back(OpRequest::timer(15, Seconds{1.0}));
  wave.push_back(OpRequest::compute(16, NodeId{0}, Mops{50.0}));
  wave.push_back(OpRequest::transfer(17, NodeId{1}, NodeId{0}, Bytes{5e5}));
  return wave;
}

std::vector<Completion> drain(SimBackend& backend) {
  std::vector<Completion> out;
  while (const auto c = backend.wait_next()) out.push_back(*c);
  return out;
}

TEST(SimBackend, BatchMatchesOneAtATimeSubmission) {
  const gridsim::Grid grid = two_node_site();
  SimBackend batched(grid);
  SimBackend single(grid);
  for (SimBackend* b : {&batched, &single}) {
    b->submit_timer(1, Seconds{0.25});  // start the wave off t = 0
    ASSERT_TRUE(b->wait_next().has_value());
  }
  batched.submit_batch(mixed_wave());
  for (const OpRequest& r : mixed_wave()) {
    switch (r.kind) {
      case OpRequest::Kind::Compute:
        single.submit_compute(r.token, r.node, r.work);
        break;
      case OpRequest::Kind::Transfer:
        single.submit_transfer(r.token, r.from, r.to, r.payload);
        break;
      case OpRequest::Kind::Timer:
        single.submit_timer(r.token, r.delay);
        break;
    }
  }
  EXPECT_EQ(batched.in_flight(), 6u);
  EXPECT_EQ(single.in_flight(), 6u);
  const std::vector<Completion> got = drain(batched);
  const std::vector<Completion> want = drain(single);
  ASSERT_EQ(got.size(), 8u);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(got[i].token, want[i].token);
    EXPECT_EQ(got[i].node, want[i].node);
    EXPECT_EQ(got[i].started.value, want[i].started.value);
    EXPECT_EQ(got[i].finished.value, want[i].finished.value);
    EXPECT_EQ(got[i].is_timer, want[i].is_timer);
  }
  // Loopback first, then the 0.5 s compute, then the six 1 s ops in
  // submission order (equal deadlines pop FIFO).
  std::vector<OpToken> order;
  for (const Completion& c : got) order.push_back(c.token);
  EXPECT_EQ(order, (std::vector<OpToken>{14, 16, 10, 11, 12, 13, 15, 17}));
  EXPECT_EQ(got[2].finished.value, 1.25);
  EXPECT_EQ(batched.now().value, single.now().value);
}

TEST(SimBackend, OneBadRequestRejectsTheWholeBatch) {
  const gridsim::Grid grid = two_node_site();
  for (const OpRequest& bad :
       {OpRequest::timer(20, Seconds{-1.0}),
        OpRequest::timer(20, Seconds{std::nan("")}),
        OpRequest::compute(20, NodeId{0}, Mops{std::nan("")}),
        OpRequest::compute(20, NodeId{0}, Mops{-1.0}),
        OpRequest::transfer(20, NodeId{0}, NodeId{1}, Bytes{std::nan("")}),
        OpRequest::transfer(20, NodeId{0}, NodeId{1}, Bytes{-1.0})}) {
    SimBackend backend(grid);
    backend.submit_timer(1, Seconds{0.25});
    std::vector<OpRequest> wave = mixed_wave();
    wave.insert(wave.begin() + 3, bad);
    EXPECT_THROW(backend.submit_batch(std::move(wave)), std::invalid_argument);
    EXPECT_EQ(backend.in_flight(), 0u);
    EXPECT_DOUBLE_EQ(backend.now().value, 0.0);
    EXPECT_DOUBLE_EQ(backend.compute_progress(11), 0.0);
    EXPECT_FALSE(backend.cancel_timer(10));
    // Only the timer armed before the wave is still there.
    const auto c = backend.wait_next();
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->token, 1u);
    EXPECT_FALSE(backend.wait_next().has_value());
  }
}

}  // namespace
}  // namespace grasp::core
