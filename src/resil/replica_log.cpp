#include "resil/replica_log.hpp"

#include <algorithm>

namespace grasp::resil {

const char* to_string(ReplicaRecordKind kind) {
  switch (kind) {
    case ReplicaRecordKind::Assign: return "assign";
    case ReplicaRecordKind::Complete: return "complete";
    case ReplicaRecordKind::Checkpoint: return "checkpoint";
    case ReplicaRecordKind::Membership: return "membership";
    case ReplicaRecordKind::Baseline: return "baseline";
  }
  return "unknown";
}

std::uint64_t ReplicaLog::append(Record record) {
  records_.push_back(std::move(record));
  return end_seq() - 1;
}

void ReplicaLog::add_replica(NodeId standby) {
  if (std::uint64_t* mark = marks_.find(standby)) {
    *mark = end_seq();  // re-recruited: the fresh snapshot supersedes history
    return;
  }
  marks_.emplace(standby, end_seq());
}

bool ReplicaLog::remove_replica(NodeId standby) {
  const bool removed = marks_.erase(standby);
  if (removed) compact();
  return removed;
}

bool ReplicaLog::has_replica(NodeId standby) const {
  return marks_.contains(standby);
}

std::vector<NodeId> ReplicaLog::replicas() const {
  std::vector<NodeId> out;
  out.reserve(marks_.size());
  for (const auto& item : marks_) out.push_back(item.key);
  return out;
}

std::uint64_t ReplicaLog::watermark(NodeId standby) const {
  const std::uint64_t* mark = marks_.find(standby);
  return mark == nullptr ? 0 : *mark;
}

ReplicaLog::FlushStats ReplicaLog::flush(gridsim::LivenessCursor& live,
                                         Seconds now) {
  FlushStats stats;
  for (auto& item : marks_) {
    if (!live.is_member(item.key, now)) continue;  // a dead standby gets nothing
    for (std::uint64_t seq = std::max(item.value, base_); seq < end_seq();
         ++seq) {
      const Record& r = records_[static_cast<std::size_t>(seq - base_)];
      ++stats.records;
      stats.bytes += kReplicaRecordBytes + r.state_bytes;
    }
    item.value = end_seq();
  }
  compact();
  return stats;
}

void ReplicaLog::rollback_to(std::uint64_t seq,
                             const std::function<void(const Record&)>& undo) {
  seq = std::max(seq, base_);
  while (end_seq() > seq) {
    if (undo) undo(records_.back());
    records_.pop_back();
  }
  // A standby cannot keep records the authority has retracted: any
  // watermark above the truncation point clamps down to it.
  for (auto& item : marks_) item.value = std::min(item.value, seq);
}

void ReplicaLog::compact() {
  if (marks_.empty()) {
    // Nobody needs history: a future recruit starts from a snapshot.
    base_ = end_seq();
    records_.clear();
    return;
  }
  std::uint64_t keep_from = end_seq();
  for (const auto& item : marks_)
    keep_from = std::min(keep_from, item.value);
  if (keep_from <= base_) return;
  records_.erase(records_.begin(),
                 records_.begin() +
                     static_cast<std::ptrdiff_t>(keep_from - base_));
  base_ = keep_from;
}

}  // namespace grasp::resil
