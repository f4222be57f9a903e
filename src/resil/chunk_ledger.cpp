#include "resil/chunk_ledger.hpp"

#include <algorithm>
#include <stdexcept>

namespace grasp::resil {

void ChunkLedger::record(core::OpToken token, Entry entry) {
  if (entries_.contains(token))
    throw std::logic_error("ChunkLedger: token already registered");
  entry.stamp = next_stamp_++;
  entries_.emplace(token, std::move(entry));
}

void ChunkLedger::advance(core::OpToken token) {
  if (Entry* entry = entries_.find(token)) entry->stamp = next_stamp_++;
}

bool ChunkLedger::checkpoint(core::OpToken token, std::size_t tasks_done,
                             double state_bytes) {
  Entry* entry = entries_.find(token);
  if (entry == nullptr) return false;
  tasks_done = std::min(tasks_done, entry->tasks.size());
  if (tasks_done <= entry->checkpointed) return false;  // monotone high-water
  entry->checkpointed = tasks_done;
  ++checkpoints_;
  if (state_bytes > 0.0) checkpoint_state_bytes_ += state_bytes;
  return true;
}

std::size_t ChunkLedger::checkpoint_batch(
    std::span<const CheckpointUpdate> updates) {
  std::size_t advanced = 0;
  for (const CheckpointUpdate& u : updates)
    if (checkpoint(u.token, u.tasks_done, u.state_bytes)) ++advanced;
  return advanced;
}

bool ChunkLedger::revert_checkpoint(core::OpToken token, std::size_t mark) {
  Entry* entry = entries_.find(token);
  if (entry == nullptr || entry->checkpointed <= mark) return false;
  entry->checkpointed = mark;
  return true;
}

double ChunkLedger::snapshot_bytes() const {
  double bytes = 0.0;
  for (const auto& item : entries_)
    bytes += 64.0 + 48.0 * static_cast<double>(item.value.tasks.size());
  return bytes;
}

std::optional<ChunkLedger::Entry> ChunkLedger::complete(core::OpToken token) {
  auto [found, entry] = entries_.take(token);
  if (!found) return std::nullopt;
  return entry;
}

std::optional<ChunkLedger::Entry> ChunkLedger::invalidate(
    core::OpToken token, const CompletedFn& completed) {
  auto entry = complete(token);
  if (entry) count_loss(*entry, completed);
  return entry;
}

std::vector<std::pair<core::OpToken, ChunkLedger::Entry>>
ChunkLedger::fail_node(NodeId node, const CompletedFn& completed) {
  std::vector<std::pair<core::OpToken, Entry>> out;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->value.node == node) {
      count_loss(it->value, completed);
      out.emplace_back(it->key, std::move(it->value));
      it = entries_.erase(it);
    } else {
      ++it;
    }
  }
  // Oldest dispatch first; equal dispatch times in order of last phase
  // change (stamps are unique, so the order is total).
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    if (a.second.dispatched != b.second.dispatched)
      return a.second.dispatched < b.second.dispatched;
    return a.second.stamp < b.second.stamp;
  });
  return out;
}

void ChunkLedger::count_loss(const Entry& entry, const CompletedFn& completed) {
  // Three-way split.  Tasks a winning twin already finished were not lost
  // to the crash; tasks inside the checkpointed prefix are recovered (their
  // partial results sit at the farmer); only the rest must be redone.
  std::size_t wasted = 0;
  double wasted_mops = 0.0;
  for (std::size_t i = 0; i < entry.tasks.size(); ++i) {
    const auto& t = entry.tasks[i];
    if (completed && t.id.is_valid() && completed(t.id)) continue;
    if (i < entry.checkpointed) {
      ++tasks_recovered_;
      recovered_mops_ += t.work.value;
      continue;
    }
    ++wasted;
    wasted_mops += t.work.value;
  }
  if (wasted == 0) return;
  ++chunks_lost_;
  tasks_lost_ += wasted;
  wasted_mops_ += wasted_mops;
}

}  // namespace grasp::resil
