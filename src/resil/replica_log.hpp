// ReplicaLog: the incremental replication stream behind farmer failover.
//
// The farmer's authoritative state — chunk assignments, completion results,
// checkpoint high-water marks, membership and calibration verdicts — is
// shadowed by one or more hot standbys.  Every mutation appends a record
// here; on each heartbeat tick the unflushed suffix ships to every live
// standby, piggybacked on the heartbeat/progress traffic that already flows
// (wire records are 32 bytes, Payload-inline, so steady state allocates
// nothing on the mp transport).  Each standby owns a watermark — the log
// prefix it has durably applied.  When the farmer dies, the promoted
// standby's watermark divides history: everything below it survived the
// crash, everything above it died with the farmer and must be rolled back
// (completed results retracted and re-queued, checkpoint marks lowered)
// before the new farmer resumes.  A freshly recruited standby receives a
// state snapshot instead of history, so the log only retains records some
// registered standby still lacks.
//
// Two layers live in this header, mirroring resil/heartbeat.hpp:
//   * the wire format + send/drain helpers over mp::Communicator (the role
//     MPI played in the published prototype), and
//   * the in-process ReplicaLog the virtual-time farm drives directly.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/backend.hpp"
#include "mp/communicator.hpp"
#include "support/flat_map.hpp"
#include "support/ids.hpp"
#include "workloads/task.hpp"

namespace grasp::resil {

/// Reserved replication tag (user tags stay below 1 << 27; heartbeats and
/// progress sit at +17/+18; collectives at and above 1 << 28).
inline constexpr int kReplicaLogTag = (1 << 27) + 19;

enum class ReplicaRecordKind : std::uint32_t {
  Assign,      ///< chunk registered in the ledger (token, node)
  Complete,    ///< chunk results accepted; the marked tasks ride along
  Checkpoint,  ///< a chunk's checkpoint high-water mark advanced
  Membership,  ///< the farmer's member view changed (join/leave/death)
  Baseline,    ///< a calibration installed a new baseline/worker set
};

[[nodiscard]] const char* to_string(ReplicaRecordKind kind);

/// Wire form of one log record: exactly 32 bytes so it stays inside
/// mp::Payload's inline buffer.  Grid node ids are dense small integers, so
/// 32 bits suffice on the wire; `arg` is kind-specific (tasks done for
/// Checkpoint, event code for Membership, marked-task count for Complete).
struct ReplicaRecordWire {
  std::uint64_t seq = 0;
  std::uint64_t token = 0;
  std::uint32_t kind = 0;
  std::uint32_t node = 0;
  std::uint64_t arg = 0;
};
static_assert(sizeof(ReplicaRecordWire) == 32,
              "wire records must stay Payload-inline");

/// Ship one record to a standby rank.  `state_bytes` is the replicated
/// payload travelling with it (completion results, checkpoint state); like
/// progress shipping it is charged through the world's send hook.
void send_replica_record(mp::Comm& comm, int standby_rank,
                         const ReplicaRecordWire& record,
                         double state_bytes = 0.0);

/// Drain every pending record into `sink`, in arrival order.  Non-blocking;
/// returns the number of records consumed.
std::size_t drain_replica_records(
    mp::Comm& comm, const std::function<void(const ReplicaRecordWire&)>& sink);

/// The farmer-side log with per-standby watermarks (in-process form; the
/// virtual-time farm appends/flushes it directly and accounts the traffic
/// without charging the simulated clock, exactly like checkpoint shipping).
class ReplicaLog {
 public:
  struct Record {
    ReplicaRecordKind kind = ReplicaRecordKind::Assign;
    core::OpToken token = 0;
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
    double bytes = 0.0;       ///< wire + state volume shipped
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

  /// Ship the unflushed suffix to every registered standby for which
  /// `alive` holds (dead standbys receive nothing and keep their stale
  /// watermark), then drop records every registered standby already holds.
  FlushStats flush(const std::function<bool(NodeId)>& alive);

  /// Roll history back to `seq`: `undo` is invoked for each record above it
  /// in reverse append order, the suffix is dropped, and watermarks above
  /// `seq` are clamped down (a standby cannot keep records the authority
  /// has retracted).  `seq` below base_seq() is clamped to base_seq().
  void rollback_to(std::uint64_t seq,
                   const std::function<void(const Record&)>& undo);

  /// A phase transition re-keyed a ledger entry (input -> compute ->
  /// output): retained records naming the old token follow it, so a
  /// post-crash rollback still finds the entry whose checkpoint mark it
  /// must revert.  Records already compacted away need no retarget — every
  /// standby holds them, so they can never roll back.  Costs O(retained
  /// records): a caller must flush every tick so the retained suffix stays
  /// short.
  void retarget(core::OpToken old_token, core::OpToken new_token);

 private:
  void compact();

  std::uint64_t base_ = 0;
  std::vector<Record> records_;  ///< records_[i] has seq base_ + i
  FlatMap<NodeId, std::uint64_t> marks_;
};

}  // namespace grasp::resil
