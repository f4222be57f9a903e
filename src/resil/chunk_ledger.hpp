// ChunkLedger: the exactly-once accounting behind crash recovery.
//
// Every dispatched chunk is registered under one key for its whole life:
// the input -> compute -> output phase transitions keep the key and only
// restamp the entry (`advance`).  When a node is declared dead,
// `fail_node` surrenders its entries exactly once — callers return the
// contained tasks to the work queue and nothing else ever will, because the
// entries are gone.  Zombie completions (a chunk whose node crashed
// mid-flight) are settled through `invalidate`, which removes the entry so
// a later `fail_node` cannot re-dispatch the same work a second time.
//
// Checkpointing: workers periodically report (chunk, tasks_done) progress
// on the liveness tick; `checkpoint` records the per-chunk high-water
// mark — monotone, regressions are ignored.  A surrendered entry then
// splits three ways: tasks a winning twin already finished are nobody's
// loss, tasks inside the checkpointed prefix are *recovered* (their partial
// results sit safely at the farmer; the caller marks them completed instead
// of re-dispatching), and only the un-checkpointed suffix is charged as
// wasted work and re-dispatched.
//
// Storage is a FlatMap (support/flat_map.hpp): O(1) find and erase, with
// lazy compaction.  Each entry carries a stamp, renewed by `record` and
// `advance`; fail_node surrenders oldest dispatch first and, among equal
// dispatch times, in order of last phase change, so its surrender order —
// and therefore re-dispatch order — is deterministic.  The per-tick
// checkpoint pass applies all of a tick's progress reports through
// `checkpoint_batch` in one call.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "support/flat_map.hpp"
#include "workloads/task.hpp"

namespace grasp::resil {

class ChunkLedger {
 public:
  struct Entry {
    NodeId node;
    std::vector<workloads::TaskSpec> tasks;
    Seconds dispatched;
    Mops work;
    /// Checkpoint high-water mark: the first `checkpointed` tasks have had
    /// their partial results shipped to the farmer.  Monotone; phase
    /// changes keep it, since they keep the entry.
    std::size_t checkpointed = 0;
    /// Order of the entry's last record/advance; set by the ledger.
    std::uint64_t stamp = 0;
  };

  /// One progress report of a checkpoint pass (see checkpoint_batch).
  struct CheckpointUpdate {
    core::OpToken token = 0;
    std::size_t tasks_done = 0;
    /// Size of the partial state shipped with this report, accumulated into
    /// checkpoint_state_bytes() when the high-water mark advances.
    double state_bytes = 0.0;
  };

  /// Register a freshly dispatched chunk under its key for life.  The key
  /// must be unused.
  void record(core::OpToken token, Entry entry);

  /// The chunk moved to its next phase (input -> compute -> output): it
  /// now sorts after every entry recorded or advanced before.  No-op for
  /// unknown keys (the chunk may have been surrendered meanwhile).
  void advance(core::OpToken token);

  /// Record a progress message: the first `tasks_done` tasks of the chunk
  /// are checkpointed at the farmer.  Returns true when the high-water mark
  /// advanced; stale (non-increasing) updates and unknown tokens (the chunk
  /// may have completed or been surrendered meanwhile) return false.
  /// `state_bytes` is the shipped partial state, accounted only when the
  /// mark advances.
  bool checkpoint(core::OpToken token, std::size_t tasks_done,
                  double state_bytes = 0.0);

  /// Apply a whole checkpoint pass — every progress report piggybacked on
  /// the current heartbeat round — in one call.  Returns the number of
  /// reports whose high-water mark advanced.
  std::size_t checkpoint_batch(std::span<const CheckpointUpdate> updates);

  /// Lower a chunk's checkpoint high-water mark to `mark` (farmer failover
  /// rollback: the partial state above `mark` was shipped to a coordinator
  /// that died before replicating it, so the salvageable prefix shrank).
  /// The shipping counters are untouched — the traffic really happened.
  /// Returns true when a tracked entry's mark actually moved down.
  bool revert_checkpoint(core::OpToken token, std::size_t mark);

  /// Chunk finished normally: remove and return its entry.
  std::optional<Entry> complete(core::OpToken token);

  /// Identifies tasks already completed elsewhere (e.g. by a straggler
  /// reissue that won the race).  When supplied, loss accounting only
  /// counts tasks still pending — a chunk whose every task already
  /// finished on its twin is removed without counting as lost at all.
  using CompletedFn = std::function<bool(TaskId)>;

  /// Chunk invalidated by a crash: remove and return its entry, counting
  /// the pending work as lost.
  std::optional<Entry> invalidate(core::OpToken token,
                                  const CompletedFn& completed = {});

  /// Surrender every in-flight entry on `node` with its key (oldest
  /// dispatch first, ties in order of last phase change), counting pending
  /// work lost.  A second call for the same node returns nothing — the
  /// exactly-once guarantee for crash re-dispatch.
  std::vector<std::pair<core::OpToken, Entry>> fail_node(
      NodeId node, const CompletedFn& completed = {});

  [[nodiscard]] bool tracks(core::OpToken token) const {
    return entries_.contains(token);
  }
  /// Checkpoint high-water mark of a tracked chunk; 0 for unknown tokens.
  [[nodiscard]] std::size_t checkpointed(core::OpToken token) const {
    const Entry* entry = entries_.find(token);
    return entry == nullptr ? 0 : entry->checkpointed;
  }
  [[nodiscard]] std::size_t in_flight() const { return entries_.size(); }

  /// Estimated serialized size of the live table — what a freshly
  /// recruited standby receives wholesale before the incremental
  /// replication log takes over (fixed header per entry plus its task
  /// records); drives the recruit-traffic accounting.
  [[nodiscard]] double snapshot_bytes() const;

  // Loss accounting (drives the wasted-work experiment columns).  Recovered
  // work — tasks inside a lost chunk's checkpointed prefix — is counted
  // separately and never folded into the wasted columns.
  [[nodiscard]] std::size_t chunks_lost() const { return chunks_lost_; }
  [[nodiscard]] std::size_t tasks_lost() const { return tasks_lost_; }
  [[nodiscard]] double wasted_mops() const { return wasted_mops_; }
  [[nodiscard]] std::size_t checkpoints() const { return checkpoints_; }
  [[nodiscard]] std::size_t tasks_recovered() const { return tasks_recovered_; }
  [[nodiscard]] double recovered_mops() const { return recovered_mops_; }
  /// Total partial-state bytes shipped by accepted checkpoints.
  [[nodiscard]] double checkpoint_state_bytes() const {
    return checkpoint_state_bytes_;
  }

 private:
  void count_loss(const Entry& entry, const CompletedFn& completed);

  FlatMap<core::OpToken, Entry> entries_;
  std::uint64_t next_stamp_ = 0;
  std::size_t chunks_lost_ = 0;
  std::size_t tasks_lost_ = 0;
  double wasted_mops_ = 0.0;
  std::size_t checkpoints_ = 0;       ///< accepted (advancing) checkpoints
  std::size_t tasks_recovered_ = 0;   ///< checkpointed tasks of lost chunks
  double recovered_mops_ = 0.0;
  double checkpoint_state_bytes_ = 0.0;  ///< shipped partial-state volume
};

}  // namespace grasp::resil
