#include "resil/elastic_pool.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace grasp::resil {

namespace {

bool erase_value(std::vector<NodeId>& v, NodeId node) {
  const auto it = std::find(v.begin(), v.end(), node);
  if (it == v.end()) return false;
  v.erase(it);
  return true;
}

}  // namespace

void ElasticPool::Params::validate() const {
  if (!(std::isfinite(evict_ratio) && evict_ratio >= 0.0))
    throw std::invalid_argument(
        "ElasticPool: evict_ratio must be finite and >= 0");
}

ElasticPool::ElasticPool(Params params) : params_(params) {
  params_.validate();
}

void ElasticPool::reset(std::vector<NodeId> workers) {
  workers_ = std::move(workers);
  ++revision_;
  probation_.clear();
  strikes_.clear();
}

bool ElasticPool::contains(NodeId node) const {
  return std::find(workers_.begin(), workers_.end(), node) != workers_.end();
}

bool ElasticPool::remove(NodeId node) {
  strikes_.erase(node);
  erase_value(probation_, node);
  if (!erase_value(workers_, node)) return false;
  ++revision_;
  return true;
}

void ElasticPool::begin_probation(NodeId node) {
  if (contains(node) || in_probation(node)) return;
  probation_.push_back(node);
}

bool ElasticPool::in_probation(NodeId node) const {
  return std::find(probation_.begin(), probation_.end(), node) !=
         probation_.end();
}

bool ElasticPool::admit(NodeId node, double probe_spm, double baseline_spm) {
  erase_value(probation_, node);
  if (contains(node)) return true;  // recalibration admitted it meanwhile
  if (baseline_spm <= 0.0 || probe_spm <= kAdmitRatio * baseline_spm) {
    workers_.push_back(node);
    ++revision_;
    ++admissions_;
    return true;
  }
  ++rejections_;
  return false;
}

bool ElasticPool::observe(NodeId node, double spm, double baseline_spm) {
  if (params_.evict_ratio <= 0.0 || baseline_spm <= 0.0) return false;
  if (!contains(node)) return false;
  if (spm > params_.evict_ratio * baseline_spm) {
    if (++strikes_[node] >= kEvictAfter && workers_.size() > kMinWorkers) {
      remove(node);
      ++evictions_;
      return true;
    }
  } else {
    strikes_[node] = 0;
  }
  return false;
}

}  // namespace grasp::resil
