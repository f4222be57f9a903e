// Pool-wide calibration cache: one tenant's measurements warm another's
// start.
//
// Algorithm 1 probes every pool node before dispatch; in a job stream
// most of those probes re-measure nodes another tenant sampled seconds
// ago.  The service threads this cache through every job's
// CalibrationParams (core::SpmCache seam): the calibrator consults it
// before probing — a fresh entry seeds the node's spm statistic directly
// and the probe chain for that node is skipped — and stores every spm it
// does measure back, stamped with the backend clock.  Recalibrations
// always re-probe (warm_start is cleared after a job's initial
// calibration) but still publish their fresh measurements here.
//
// Entries expire after `max_age`: grid load drifts, so a stale spm is
// worse than a probe.  Not synchronized: the service steps every tenant
// from the one thread that calls it.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "core/calibration.hpp"
#include "support/ids.hpp"

namespace grasp::svc {

class CalibrationCache final : public core::SpmCache {
 public:
  struct Params {
    /// Entries older than this (backend seconds) are treated as absent.
    /// +inf never expires an entry.
    Seconds max_age = Seconds{600.0};

    /// Throws std::invalid_argument on a NaN or negative max_age: NaN would
    /// never expire an entry, and a negative age would miss at the very
    /// instant of the store.
    void validate() const;
  };

  CalibrationCache() : CalibrationCache(Params{}) {}
  /// Throws std::invalid_argument when params.validate() does.
  explicit CalibrationCache(Params params);

  [[nodiscard]] std::optional<double> lookup(NodeId node,
                                             Seconds now) const override;
  void store(NodeId node, double spm, Seconds now) override;

  /// Drop a node's entry (no-op when absent).  The service calls this on
  /// membership Crash/Leave and degradation evictions: a crashed node's
  /// spm is meaningless on rejoin, and a degraded node's cached speed is
  /// exactly the measurement that got it evicted — warm-starting the next
  /// tenant from either ranks the node by a machine that no longer
  /// exists.  Returns true when an entry was actually removed.
  bool invalidate(NodeId node);

  /// Live entries (age is evaluated lazily at lookup, so this counts
  /// stored entries including ones that would now read as stale).
  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  /// Lookups served by a fresh entry / total lookups that found nothing
  /// usable / stores.  Two callers look up: a tenant's initial Algorithm-1
  /// pass (once per pool node, warm_start) and GridService admission (once
  /// per live node each time it evaluates a waiting head job).
  [[nodiscard]] std::size_t hits() const { return hits_; }
  [[nodiscard]] std::size_t misses() const { return misses_; }
  [[nodiscard]] std::size_t stores() const { return stores_; }
  /// Entries removed via invalidate (counts removals, not no-op calls).
  [[nodiscard]] std::size_t invalidations() const { return invalidations_; }
  void clear();

  /// Bumped by every store, removal and clear.  Between two bumps a
  /// lookup's answer changes only when its entry expires.
  [[nodiscard]] std::uint64_t version() const { return version_; }
  /// Stamp of the oldest entry fresh at `now`, +inf when none is: until
  /// expired(stamp, later) holds, no lookup answer changes without a
  /// version bump.
  [[nodiscard]] Seconds oldest_fresh(Seconds now) const;
  /// The freshness rule: an entry stamped `at` reads as absent at `now`.
  [[nodiscard]] bool expired(Seconds at, Seconds now) const {
    return (now - at).value > params_.max_age.value;
  }

 private:
  struct Entry {
    double spm = 0.0;
    Seconds at{0.0};
  };

  Params params_;
  std::unordered_map<NodeId, Entry> entries_;
  mutable std::size_t hits_ = 0;
  mutable std::size_t misses_ = 0;
  std::size_t stores_ = 0;
  std::size_t invalidations_ = 0;
  std::uint64_t version_ = 0;
};

}  // namespace grasp::svc
