#include "resil/failure_detector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace grasp::resil {

void FailureDetector::Params::validate() const {
  // Written to fail on NaN as well: NaN compares false both ways.
  if (!(std::isfinite(heartbeat_period.value) && heartbeat_period.value > 0.0))
    throw std::invalid_argument(
        "FailureDetector: heartbeat_period must be finite and positive");
  if (!(std::isfinite(timeout.value) && timeout.value > 0.0))
    throw std::invalid_argument(
        "FailureDetector: timeout must be finite and positive");
}

FailureDetector::FailureDetector(Params params)
    : params_(params),
      last_(Seconds{kUnwatched}),
      oldest_(Seconds{std::numeric_limits<double>::infinity()}),
      next_change_(Seconds{-std::numeric_limits<double>::infinity()}) {
  params_.validate();
  quiet_until_ = quiet_bound(1);
}

Seconds FailureDetector::quiet_bound(long long tick) const {
  // fl(now / period) < tick for every now below k * period * (1 - 2^-50):
  // the three roundings (this product twice, the quotient once) together
  // stay within 3 units of 2^-53, far less than the 2^-50 taken off.
  return Seconds{static_cast<double>(tick) * params_.heartbeat_period.value *
                 (1.0 - 0x1p-50)};
}

void FailureDetector::watch(NodeId node, Seconds now) {
  Seconds& last = last_[node];
  if (last.value == kUnwatched) ++watched_count_;
  last = now;
  oldest_ = std::min(oldest_, now);
}

void FailureDetector::unwatch(NodeId node) {
  if (!watching(node)) return;
  last_[node] = Seconds{kUnwatched};
  --watched_count_;
}

bool FailureDetector::watching(NodeId node) const {
  return last_.at_or_default(node).value != kUnwatched;
}

void FailureDetector::heartbeat(NodeId node, Seconds at) {
  if (!watching(node)) return;  // not watched; drop
  Seconds& last = last_[node];
  if (at > last) last = at;  // stale stamps are ignored
}

void FailureDetector::advance(Seconds now, gridsim::LivenessCursor& live) {
  // An infinite or NaN clock would reach the floor-to-integer casts below.
  if (!std::isfinite(now.value))
    throw std::invalid_argument("FailureDetector: advance to a non-finite time");
  if (now <= last_advance_) return;
  if (now < quiet_until_) {  // the common case: no tick since the last call
    last_advance_ = now;
    return;
  }
  const double period = params_.heartbeat_period.value;
  const auto first_tick =
      static_cast<long long>(std::floor(last_advance_.value / period)) + 1;
  const auto last_tick = static_cast<long long>(std::floor(now.value / period));
  if (first_tick <= last_tick) {
    const Seconds last_at{static_cast<double>(last_tick) * period};
    // Every tick in range lies at or after a node's last scanned tick and
    // at or before this bound: a node with no event up to it holds one
    // state across all of them, the one the cursor reports now.
    const Seconds settled = std::max(now, last_at);
    oldest_ = Seconds{std::numeric_limits<double>::infinity()};
    const std::size_t slots = last_.values().size();
    for (std::size_t slot = 0; slot < slots; ++slot) {
      if (last_.values()[slot].value == kUnwatched) continue;
      const NodeId node{slot};
      Seconds& next = next_change_[node];
      if (next > settled) {
        if (live.is_member(node, now) && last_at > last_.values()[slot])
          last_[node] = last_at;
      } else {
        // Latest alive tick wins; scan backwards and stop at the first hit
        // so large clock jumps stay cheap for healthy nodes.
        for (long long k = last_tick; k >= first_tick; --k) {
          const Seconds tick{static_cast<double>(k) * period};
          if (live.is_member(node, tick)) {
            if (tick > last_.values()[slot]) last_[node] = tick;
            break;
          }
        }
        next = live.timeline().next_change(node, last_at);
      }
      oldest_ = std::min(oldest_, last_.values()[slot]);
    }
  }
  last_advance_ = now;
  quiet_until_ = quiet_bound(last_tick + 1);
}

std::vector<NodeId> FailureDetector::scan_suspects(Seconds now) const {
  std::vector<NodeId> out;
  // The dense table is walked in id order, so the output needs no sort.
  for (std::size_t slot = 0; slot < last_.values().size(); ++slot) {
    const Seconds last = last_.values()[slot];
    if (last.value == kUnwatched) continue;
    if (now - last > params_.timeout) out.push_back(NodeId{slot});
  }
  return out;
}

std::vector<NodeId> FailureDetector::watched() const {
  std::vector<NodeId> out;
  out.reserve(watched_count_);
  for (std::size_t slot = 0; slot < last_.values().size(); ++slot)
    if (last_.values()[slot].value != kUnwatched) out.push_back(NodeId{slot});
  return out;
}

Seconds FailureDetector::last_heartbeat(NodeId node) const {
  return last_.at_or_default(node);  // kUnwatched doubles as "not watched"
}

}  // namespace grasp::resil
