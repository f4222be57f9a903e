#include "resil/chunk_ledger.hpp"

#include <gtest/gtest.h>

namespace grasp::resil {
namespace {

workloads::TaskSpec task(std::uint64_t id, double mops = 10.0) {
  workloads::TaskSpec t;
  t.id = TaskId{id};
  t.work = Mops{mops};
  return t;
}

ChunkLedger::Entry entry(NodeId node, std::initializer_list<std::uint64_t> ids,
                         double at = 0.0) {
  ChunkLedger::Entry e;
  e.node = node;
  for (const auto id : ids) e.tasks.push_back(task(id));
  e.dispatched = Seconds{at};
  e.work = Mops{10.0 * static_cast<double>(e.tasks.size())};
  return e;
}

TEST(ChunkLedger, CompleteRemovesEntry) {
  ChunkLedger ledger;
  ledger.record(1, entry(NodeId{0}, {1, 2}));
  EXPECT_TRUE(ledger.tracks(1));
  const auto e = ledger.complete(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->tasks.size(), 2u);
  EXPECT_FALSE(ledger.tracks(1));
  EXPECT_FALSE(ledger.complete(1).has_value());
  EXPECT_EQ(ledger.chunks_lost(), 0u);
}

TEST(ChunkLedger, PhaseChangesKeepTheChunksKey) {
  ChunkLedger ledger;
  ledger.record(1, entry(NodeId{3}, {7}));
  ledger.advance(1);  // input -> compute
  ledger.advance(1);  // compute -> output
  ASSERT_TRUE(ledger.tracks(1));
  EXPECT_EQ(ledger.in_flight(), 1u);
  ledger.advance(99);  // unknown key: no-op
  EXPECT_FALSE(ledger.tracks(99));
  const auto e = ledger.complete(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->node, NodeId{3});
  ledger.advance(1);  // completed meanwhile: no-op
  EXPECT_FALSE(ledger.tracks(1));
}

TEST(ChunkLedger, FailNodeSurrendersEntriesExactlyOnce) {
  ChunkLedger ledger;
  ledger.record(1, entry(NodeId{0}, {1, 2}, 5.0));
  ledger.record(2, entry(NodeId{1}, {3}, 1.0));
  ledger.record(3, entry(NodeId{0}, {4}, 2.0));

  const auto lost = ledger.fail_node(NodeId{0});
  ASSERT_EQ(lost.size(), 2u);
  // Oldest dispatch first.
  EXPECT_EQ(lost[0].first, 3u);
  EXPECT_EQ(lost[1].first, 1u);
  EXPECT_EQ(ledger.chunks_lost(), 2u);
  EXPECT_EQ(ledger.tasks_lost(), 3u);
  EXPECT_DOUBLE_EQ(ledger.wasted_mops(), 30.0);

  // Exactly once: a second declaration finds nothing.
  EXPECT_TRUE(ledger.fail_node(NodeId{0}).empty());
  EXPECT_EQ(ledger.chunks_lost(), 2u);
  // The survivor is untouched.
  EXPECT_TRUE(ledger.tracks(2));
}

TEST(ChunkLedger, InvalidateCountsLossAndBlocksLaterFailNode) {
  ChunkLedger ledger;
  ledger.record(5, entry(NodeId{2}, {9, 10}));
  const auto e = ledger.invalidate(5);  // zombie completion settled first
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(ledger.chunks_lost(), 1u);
  EXPECT_EQ(ledger.tasks_lost(), 2u);
  // The detector fires later: the chunk must not be surrendered again.
  EXPECT_TRUE(ledger.fail_node(NodeId{2}).empty());
  EXPECT_EQ(ledger.chunks_lost(), 1u);
}

TEST(ChunkLedger, DuplicateTokenThrows) {
  ChunkLedger ledger;
  ledger.record(1, entry(NodeId{0}, {1}));
  EXPECT_THROW(ledger.record(1, entry(NodeId{1}, {2})), std::logic_error);
}

TEST(ChunkLedger, CheckpointAdvancesMonotonically) {
  ChunkLedger ledger;
  ledger.record(1, entry(NodeId{0}, {1, 2, 3, 4}));
  EXPECT_EQ(ledger.checkpointed(1), 0u);
  EXPECT_TRUE(ledger.checkpoint(1, 2));
  EXPECT_EQ(ledger.checkpointed(1), 2u);
  EXPECT_EQ(ledger.checkpoints(), 1u);
  // Stale and repeated marks are ignored (the high-water mark only rises).
  EXPECT_FALSE(ledger.checkpoint(1, 1));
  EXPECT_FALSE(ledger.checkpoint(1, 2));
  EXPECT_EQ(ledger.checkpointed(1), 2u);
  EXPECT_EQ(ledger.checkpoints(), 1u);
  EXPECT_TRUE(ledger.checkpoint(1, 3));
  EXPECT_EQ(ledger.checkpointed(1), 3u);
  // Marks beyond the chunk clamp to its size.
  EXPECT_TRUE(ledger.checkpoint(1, 99));
  EXPECT_EQ(ledger.checkpointed(1), 4u);
  // Unknown tokens (completed/surrendered chunks) are consumed harmlessly.
  EXPECT_FALSE(ledger.checkpoint(7, 1));
  EXPECT_EQ(ledger.checkpointed(7), 0u);
}

TEST(ChunkLedger, OnlyAdvancingCheckpointsCountShippedStateBytes) {
  // Stale re-sends must not inflate the shipped-volume accounting.
  ChunkLedger ledger;
  ledger.record(31, entry(NodeId{4}, {1, 2, 3, 4}));
  EXPECT_TRUE(ledger.checkpoint(31, 2, 100.0));
  EXPECT_FALSE(ledger.checkpoint(31, 2, 100.0));  // stale
  EXPECT_TRUE(ledger.checkpoint(31, 3, 50.0));
  EXPECT_EQ(ledger.checkpointed(31), 3u);
  EXPECT_DOUBLE_EQ(ledger.checkpoint_state_bytes(), 150.0);
}

TEST(ChunkLedger, CheckpointFromComputeIsFoundAndRevertedAfterOutput) {
  ChunkLedger ledger;
  ledger.record(1, entry(NodeId{0}, {1, 2, 3}));
  ledger.advance(1);  // input -> compute
  EXPECT_TRUE(ledger.checkpoint(1, 2));
  ledger.advance(1);  // compute -> output
  EXPECT_EQ(ledger.checkpointed(1), 2u);
  // A farmer failover rolls the mark back under the same key.
  EXPECT_TRUE(ledger.revert_checkpoint(1, 1));
  EXPECT_EQ(ledger.checkpointed(1), 1u);
  const auto e = ledger.complete(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->checkpointed, 1u);
}

TEST(ChunkLedger, FailNodeSurrendersTiesInLastPhaseChangeOrder) {
  // Two chunks on one node dispatched at the same instant, their phase
  // changes interleaved: the one that changed phase last goes last.
  ChunkLedger ledger;
  ledger.record(1, entry(NodeId{0}, {1}, 4.0));
  ledger.record(2, entry(NodeId{0}, {2}, 4.0));
  ledger.record(3, entry(NodeId{1}, {3}, 4.0));
  ledger.advance(1);  // 1: input -> compute
  ledger.advance(2);  // 2: input -> compute
  ledger.advance(1);  // 1: compute -> output
  const auto lost = ledger.fail_node(NodeId{0});
  ASSERT_EQ(lost.size(), 2u);
  EXPECT_EQ(lost[0].first, 2u);
  EXPECT_EQ(lost[1].first, 1u);
  // An earlier dispatch still goes first, whatever its phase changes.
  ledger.record(4, entry(NodeId{2}, {4}, 6.0));
  ledger.record(5, entry(NodeId{2}, {5}, 5.0));
  ledger.advance(5);
  const auto second = ledger.fail_node(NodeId{2});
  ASSERT_EQ(second.size(), 2u);
  EXPECT_EQ(second[0].first, 5u);
  EXPECT_EQ(second[1].first, 4u);
}

TEST(ChunkLedger, FailNodeSplitsRecoveredAndWasted) {
  ChunkLedger ledger;
  ledger.record(1, entry(NodeId{0}, {1, 2, 3, 4}));
  EXPECT_TRUE(ledger.checkpoint(1, 2));  // tasks 1, 2 salvageable

  const auto lost = ledger.fail_node(NodeId{0});
  ASSERT_EQ(lost.size(), 1u);
  EXPECT_EQ(lost[0].second.checkpointed, 2u);
  // Prefix recovered, suffix wasted — never both for one task.
  EXPECT_EQ(ledger.tasks_recovered(), 2u);
  EXPECT_DOUBLE_EQ(ledger.recovered_mops(), 20.0);
  EXPECT_EQ(ledger.tasks_lost(), 2u);
  EXPECT_DOUBLE_EQ(ledger.wasted_mops(), 20.0);
  EXPECT_EQ(ledger.chunks_lost(), 1u);
}

TEST(ChunkLedger, FullyCheckpointedChunkIsNotCountedLost) {
  ChunkLedger ledger;
  ledger.record(1, entry(NodeId{0}, {1, 2}));
  EXPECT_TRUE(ledger.checkpoint(1, 2));
  const auto e = ledger.invalidate(1);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(ledger.tasks_recovered(), 2u);
  EXPECT_EQ(ledger.tasks_lost(), 0u);
  EXPECT_EQ(ledger.chunks_lost(), 0u);
  EXPECT_DOUBLE_EQ(ledger.wasted_mops(), 0.0);
}

TEST(ChunkLedger, TwinCompletionTrumpsCheckpointRecovery) {
  // A task both checkpointed here and already finished by a winning twin
  // belongs to the twin: it is neither recovered nor wasted.
  ChunkLedger ledger;
  ledger.record(1, entry(NodeId{0}, {1, 2, 3}));
  EXPECT_TRUE(ledger.checkpoint(1, 2));
  const auto twin_done = [](TaskId id) { return id == TaskId{1}; };
  const auto e = ledger.invalidate(1, twin_done);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(ledger.tasks_recovered(), 1u);  // task 2 only
  EXPECT_EQ(ledger.tasks_lost(), 1u);       // task 3 only
  EXPECT_DOUBLE_EQ(ledger.recovered_mops(), 10.0);
  EXPECT_DOUBLE_EQ(ledger.wasted_mops(), 10.0);
}

}  // namespace
}  // namespace grasp::resil
