// ReplicaLog: the incremental replication stream behind farmer failover.
//
// The farmer's authoritative state — chunk assignments, completion results,
// checkpoint high-water marks, membership and calibration verdicts — is
// shadowed by one or more hot standbys.  Every mutation appends a record
// here; on each heartbeat tick the unflushed suffix ships to every live
// standby.  Each standby owns a watermark — the log prefix it has durably
// applied.  When the farmer dies, the promoted standby's watermark divides
// history: everything below it survived the crash, everything above it
// died with the farmer and must be rolled back (completed results retracted
// and re-queued, checkpoint marks lowered) before the new farmer resumes.
// A freshly recruited standby receives a state snapshot instead of history,
// so the log only retains records some registered standby still lacks.
// Records name a chunk by its ledger key, which the chunk keeps from
// dispatch to completion (resil/chunk_ledger.hpp): a rollback finds the
// entry whose checkpoint mark it must revert under the key it was logged
// with, whatever phase the chunk has reached since.
//
// The log is in-process: the virtual-time farm appends and flushes it
// directly and accounts the shipped volume without charging the simulated
// clock, exactly like checkpoint shipping.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/backend.hpp"
#include "gridsim/churn.hpp"
#include "support/flat_map.hpp"
#include "support/ids.hpp"
#include "workloads/task.hpp"

namespace grasp::resil {

enum class ReplicaRecordKind : std::uint32_t {
  Assign,      ///< chunk registered in the ledger (token, node)
  Complete,    ///< chunk results accepted; the marked tasks ride along
  Checkpoint,  ///< a chunk's checkpoint high-water mark advanced
  Membership,  ///< the farmer's member view changed (join/leave/death)
  Baseline,    ///< a calibration installed a new baseline/worker set
};

[[nodiscard]] const char* to_string(ReplicaRecordKind kind);

/// Bytes charged per shipped record copy: the fixed-size record a standby
/// needs to replay it — seq and token (8 bytes each), kind and node (4 bytes
/// each; grid node ids are dense small integers) and an 8-byte kind-specific
/// arg (tasks done for Checkpoint, event code for Membership, marked-task
/// count for Complete).  Replicated state rides on top (Record::state_bytes).
inline constexpr double kReplicaRecordBytes = 32.0;

/// The farmer-side log with per-standby watermarks.
class ReplicaLog {
 public:
  struct Record {
    ReplicaRecordKind kind = ReplicaRecordKind::Assign;
    core::OpToken token = 0;  ///< the chunk's ledger key (0: no chunk)
    NodeId node;
    std::size_t prev_mark = 0;  ///< Checkpoint: mark to roll back to
    std::size_t new_mark = 0;   ///< Checkpoint: mark this record installed
    /// Replicated payload riding the record (result bytes of the marked
    /// tasks for Complete, shipped partial state for Checkpoint).
    double state_bytes = 0.0;
    /// Complete: the tasks this record marked done, in marking order —
    /// exactly what a rollback must retract and re-queue.
    std::vector<workloads::TaskSpec> tasks;
  };

  struct FlushStats {
    std::size_t records = 0;  ///< record copies shipped (records x standbys)
    double bytes = 0.0;       ///< record + state volume shipped
  };

  /// Append a record; returns its sequence number.
  std::uint64_t append(Record record);

  /// One past the last appended sequence number.
  [[nodiscard]] std::uint64_t end_seq() const {
    return base_ + records_.size();
  }
  /// First sequence number still retained (older ones were compacted away
  /// because every registered standby holds them).
  [[nodiscard]] std::uint64_t base_seq() const { return base_; }
  [[nodiscard]] std::size_t retained() const { return records_.size(); }

  /// Register a standby that just received a full state snapshot: its
  /// watermark starts at end_seq().
  void add_replica(NodeId standby);
  /// Forget a standby (crashed and replaced).  Its watermark no longer
  /// pins compaction.  Returns true when it was registered.
  bool remove_replica(NodeId standby);
  [[nodiscard]] bool has_replica(NodeId standby) const;
  /// Registered standbys, registration order (dead ones stay registered
  /// until replaced — a rejoining standby resumes from its watermark).
  [[nodiscard]] std::vector<NodeId> replicas() const;
  [[nodiscard]] std::size_t replica_count() const { return marks_.size(); }
  /// Durable prefix of `standby`; end_seq() means fully caught up.
  /// Unregistered standbys report 0.
  [[nodiscard]] std::uint64_t watermark(NodeId standby) const;

  /// Ship the unflushed suffix to every registered standby that is a member
  /// at `now` (dead standbys receive nothing and keep their stale
  /// watermark), then drop records every registered standby already holds.
  FlushStats flush(gridsim::LivenessCursor& live, Seconds now);

  /// Roll history back to `seq`: `undo` is invoked for each record above it
  /// in reverse append order, the suffix is dropped, and watermarks above
  /// `seq` are clamped down (a standby cannot keep records the authority
  /// has retracted).  `seq` below base_seq() is clamped to base_seq().
  void rollback_to(std::uint64_t seq,
                   const std::function<void(const Record&)>& undo);

 private:
  void compact();

  std::uint64_t base_ = 0;
  std::vector<Record> records_;  ///< records_[i] has seq base_ + i
  FlatMap<NodeId, std::uint64_t> marks_;
};

}  // namespace grasp::resil
