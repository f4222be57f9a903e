// FailoverCoordinator: replicated-farmer high availability.
//
// The farm's last single point of failure is its coordinator: every churn
// scenario before this subsystem pinned the farmer via `protected_prefix`.
// Here one or more hot standbys shadow the farmer's authoritative state
// through a ReplicaLog flushed on every heartbeat tick, and watch the
// farmer's own heartbeats with the same detector the farmer uses on its
// workers.  The protocol, end to end:
//
//   detect    — the farmer falls silent; the standbys' detector declares it
//               dead within timeout + heartbeat_period of the crash.
//   promote   — the lowest-id live standby wins, deterministically.  Its
//               watermark divides history: state above it died with the
//               farmer and is rolled back (results retracted + re-queued,
//               checkpoint marks lowered) before the new farmer acts.
//   handshake — workers re-target the new farmer; completions that raced
//               the crash are parked at their workers and re-delivered when
//               the handshake window (a fixed reconnect cost) closes.
//   recruit   — a fresh standby joins from the elastic pool via a state
//               snapshot, restoring the standby count.
//
// Degenerate paths are first-class: a successor that dies mid-handshake is
// abandoned and the next standby promoted; with no live standby the
// coordinator waits (a dead standby that rejoins resumes from its retained
// watermark, a rejoining farmer resumes its own intact state), bounded by
// the engine's failover patience (task_farm.cpp).
//
// The coordinator owns the registry, the log, the farmer-watch detector and
// the failover counters; the engine (core/task_farm.cpp) drives the state
// machine and performs the actual rollback/re-dispatch, because the state
// being rolled back is the engine's.
#pragma once

#include <optional>

#include "resil/failure_detector.hpp"
#include "resil/replica_log.hpp"
#include "support/ids.hpp"

namespace grasp::resil {

class FailoverCoordinator {
 public:
  struct Params {
    /// Hot standbys to maintain; 0 disables the subsystem entirely (the
    /// farmer is then assumed reliable, the pre-failover contract).
    std::size_t standby_count = 0;
    /// Reconnect cost after promotion: dispatching is suspended and raced
    /// completions stay parked at their workers for this long.
    Seconds handshake{2.0};
  };

  /// `detector` sets the farmer watch; the engine passes its worker
  /// detector's params, so the farmer rides the same heartbeats.
  FailoverCoordinator(Params params, FailureDetector::Params detector,
                      NodeId farmer, Seconds now);

  [[nodiscard]] bool enabled() const { return params_.standby_count > 0; }
  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] NodeId farmer() const { return farmer_; }
  [[nodiscard]] bool farmer_down() const { return farmer_down_; }
  [[nodiscard]] Seconds down_since() const { return down_since_; }
  [[nodiscard]] ReplicaLog& log() { return log_; }
  [[nodiscard]] const ReplicaLog& log() const { return log_; }

  [[nodiscard]] std::vector<NodeId> standbys() const {
    return log_.replicas();
  }
  [[nodiscard]] bool is_standby(NodeId node) const {
    return log_.has_replica(node);
  }
  /// Standbys still missing against standby_count.
  [[nodiscard]] std::size_t standby_deficit() const;

  /// Register `node` as a standby that just received a state snapshot of
  /// `snapshot_bytes` (accounted as replication traffic).
  void recruit(NodeId node, double snapshot_bytes);
  /// A registered standby crashed.  While the farmer is alive the registry
  /// drops it (a replacement snapshot is cheaper than retaining history for
  /// a maybe-rejoin); while the farmer is down it stays registered so a
  /// rejoin can still resume from its watermark.
  void standby_lost(NodeId node);
  /// Post-outage hygiene, called while the farmer is alive: standbys kept
  /// registered through an outage but dead now are dropped — with a live
  /// farmer a replacement arrives by snapshot, and a corpse's stale
  /// watermark would otherwise pin log compaction forever and silently
  /// shrink the effective replication degree.
  void prune_dead_standbys(gridsim::LivenessCursor& live, Seconds now);

  /// Advance the standbys' view of the farmer's heartbeats.  Returns true
  /// exactly once per outage: when the farmer first becomes suspect.
  bool advance(Seconds now, gridsim::LivenessCursor& live);
  /// Announced farmer departure: enter the down state immediately (no
  /// timeout to wait out).  Returns true when this opened a new outage.
  bool farmer_leaving(Seconds now);

  /// Deterministic promotion rule: the lowest-id registered standby that
  /// is a member at `now`.  Empty while no standby is reachable.
  [[nodiscard]] std::optional<NodeId> successor(gridsim::LivenessCursor& live,
                                                Seconds now) const;

  /// Commit the promotion of `node` (already rolled back by the engine):
  /// it leaves the registry and becomes the watched farmer; the outage is
  /// closed and its latency — last credited farmer heartbeat to `now`,
  /// i.e. crash-to-resumption — is accounted.
  void complete_promotion(NodeId node, Seconds now);
  /// The old farmer rejoined before any standby could take over; it resumes
  /// with its own intact state (no rollback, but the outage still counts).
  void farmer_recovered(Seconds now);

  // Counters surfaced into ResilienceReport.
  [[nodiscard]] std::size_t failovers() const { return failovers_; }
  [[nodiscard]] double failover_latency_s() const {
    return failover_latency_s_;
  }
  [[nodiscard]] std::size_t recruits() const { return recruits_; }
  [[nodiscard]] std::size_t replication_records() const {
    return replication_records_;
  }
  [[nodiscard]] double replication_bytes() const { return replication_bytes_; }

  /// Account a log flush (the engine calls log().flush and hands the stats
  /// back so the virtual-time farm books traffic without charging time).
  void account_flush(const ReplicaLog::FlushStats& stats);

  /// The reconnect window for a promotion: `handshake`.  Accounts the
  /// window into handshake_cost_s — call once per armed handshake
  /// (abandoned handshakes were still paid for).
  [[nodiscard]] Seconds handshake_cost();
  /// Total reconnect-handshake time paid across every armed handshake.
  [[nodiscard]] double handshake_cost_s() const { return handshake_cost_s_; }

 private:
  void open_outage(Seconds now);

  Params params_;
  NodeId farmer_;
  bool farmer_down_ = false;
  Seconds down_since_{0.0};
  /// Last farmer heartbeat the standbys credited before the outage opened:
  /// the base of the crash-to-resumption latency metric.
  Seconds down_base_{0.0};
  FailureDetector farmer_watch_;
  ReplicaLog log_;

  std::size_t failovers_ = 0;
  double failover_latency_s_ = 0.0;
  double handshake_cost_s_ = 0.0;
  std::size_t recruits_ = 0;
  std::size_t replication_records_ = 0;
  double replication_bytes_ = 0.0;
};

}  // namespace grasp::resil
