#include "resil/failover.hpp"

#include <algorithm>
#include <stdexcept>

namespace grasp::resil {

FailoverCoordinator::FailoverCoordinator(Params params,
                                         FailureDetector::Params detector,
                                         NodeId farmer, Seconds now)
    : params_(params), farmer_(farmer), farmer_watch_(detector) {
  if (!farmer.is_valid())
    throw std::invalid_argument("FailoverCoordinator: invalid farmer");
  farmer_watch_.watch(farmer_, now);
}

std::size_t FailoverCoordinator::standby_deficit() const {
  const std::size_t have = log_.replica_count();
  return have >= params_.standby_count ? 0 : params_.standby_count - have;
}

void FailoverCoordinator::recruit(NodeId node, double snapshot_bytes) {
  log_.add_replica(node);
  ++recruits_;
  replication_bytes_ += snapshot_bytes;
}

void FailoverCoordinator::standby_lost(NodeId node) {
  // With the farmer alive the replacement arrives by snapshot, so the dead
  // standby's history pin is useless weight; during an outage the registry
  // is the only promotion path left, so a rejoiner must stay resumable.
  if (!farmer_down_) log_.remove_replica(node);
}

void FailoverCoordinator::prune_dead_standbys(gridsim::LivenessCursor& live,
                                              Seconds now) {
  if (farmer_down_) return;  // mid-outage a corpse may rejoin and resume
  for (const NodeId s : log_.replicas())
    if (!live.is_member(s, now)) log_.remove_replica(s);
}

bool FailoverCoordinator::advance(Seconds now, gridsim::LivenessCursor& live) {
  if (farmer_down_) return false;
  farmer_watch_.advance(now, live);
  if (farmer_watch_.suspects(now).empty()) return false;
  open_outage(now);
  return true;
}

bool FailoverCoordinator::farmer_leaving(Seconds now) {
  if (farmer_down_) return false;
  open_outage(now);
  // An announced departure hands over cleanly: latency is measured from the
  // announcement, not from a heartbeat the detector had to time out.
  down_base_ = now;
  return true;
}

void FailoverCoordinator::open_outage(Seconds now) {
  farmer_down_ = true;
  down_since_ = now;
  down_base_ = farmer_watch_.last_heartbeat(farmer_);
  if (down_base_.value < 0.0) down_base_ = now;
}

std::optional<NodeId> FailoverCoordinator::successor(
    gridsim::LivenessCursor& live, Seconds now) const {
  std::optional<NodeId> best;
  for (const NodeId s : log_.replicas()) {
    if (!live.is_member(s, now)) continue;
    if (!best || s < *best) best = s;
  }
  return best;
}

void FailoverCoordinator::complete_promotion(NodeId node, Seconds now) {
  if (!farmer_down_)
    throw std::logic_error("FailoverCoordinator: promotion without outage");
  log_.remove_replica(node);
  farmer_watch_.unwatch(farmer_);
  farmer_ = node;
  farmer_watch_.watch(farmer_, now);
  farmer_down_ = false;
  ++failovers_;
  failover_latency_s_ += (now - down_base_).value;
}

void FailoverCoordinator::farmer_recovered(Seconds now) {
  if (!farmer_down_)
    throw std::logic_error("FailoverCoordinator: recovery without outage");
  farmer_watch_.watch(farmer_, now);  // restart the silence clock
  farmer_down_ = false;
  ++failovers_;
  failover_latency_s_ += (now - down_base_).value;
}

void FailoverCoordinator::account_flush(const ReplicaLog::FlushStats& stats) {
  replication_records_ += stats.records;
  replication_bytes_ += stats.bytes;
}

Seconds FailoverCoordinator::handshake_cost() {
  handshake_cost_s_ += params_.handshake.value;
  return params_.handshake;
}

}  // namespace grasp::resil
