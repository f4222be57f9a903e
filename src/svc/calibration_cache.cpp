#include "svc/calibration_cache.hpp"

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
  const double age = (now - it->second.at).value;
  if (age > params_.max_age.value) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second.spm;
}

void CalibrationCache::store(NodeId node, double spm, Seconds now) {
  entries_[node] = Entry{spm, now};
  ++stores_;
}

bool CalibrationCache::invalidate(NodeId node) {
  const bool removed = entries_.erase(node) > 0;
  if (removed) ++invalidations_;
  return removed;
}

void CalibrationCache::clear() { entries_.clear(); }

}  // namespace grasp::svc
