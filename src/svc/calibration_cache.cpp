#include "svc/calibration_cache.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace grasp::svc {

void CalibrationCache::Params::validate() const {
  // Written to fail on NaN as well: NaN compares false both ways.
  if (!(max_age.value >= 0.0))
    throw std::invalid_argument(
        "CalibrationCache: max_age must be non-negative (not NaN)");
}

CalibrationCache::CalibrationCache(Params params) : params_(params) {
  params_.validate();
}

std::optional<double> CalibrationCache::lookup(NodeId node,
                                               Seconds now) const {
  const auto it = entries_.find(node);
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  if (expired(it->second.at, now)) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second.spm;
}

void CalibrationCache::store(NodeId node, double spm, Seconds now) {
  entries_[node] = Entry{spm, now};
  ++stores_;
  ++version_;
}

bool CalibrationCache::invalidate(NodeId node) {
  const bool removed = entries_.erase(node) > 0;
  if (removed) {
    ++invalidations_;
    ++version_;
  }
  return removed;
}

void CalibrationCache::clear() {
  entries_.clear();
  ++version_;
}

Seconds CalibrationCache::oldest_fresh(Seconds now) const {
  Seconds oldest{std::numeric_limits<double>::infinity()};
  for (const auto& [node, entry] : entries_)
    if (!expired(entry.at, now)) oldest = std::min(oldest, entry.at);
  return oldest;
}

}  // namespace grasp::svc
