// Background ("external") load models for non-dedicated grid nodes.
//
// A computational grid node is shared: other users' processes come and go
// and steal CPU from our skeleton.  We model this as a non-negative external
// load L(t) — the average number of competing runnable processes — that is
// piecewise-constant: each model reports, through `next_change(t)`, the
// earliest time after t at which L may change, so integrals over L walk one
// segment per change instead of a fixed time grid.  Stochastic models are
// slotted (their L changes only at multiples of `slot`) and memoise slot
// values, which are derived only from the seed and preceding slots; that
// gives deterministic O(1) amortised random access and in turn makes whole
// simulation runs reproducible.  The smooth diurnal model is sampled on a
// fixed 0.25 s grid.
//
// Effective node speed under load follows the classic processor-sharing
// rule: a node with `c` cores running one of our tasks alongside L external
// processes delivers a fraction  c / max(c, L + 1)  of its base speed.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/ids.hpp"
#include "support/rng.hpp"

namespace grasp::gridsim {

/// Interface: external CPU load as a function of time.
///
/// Implementations must be deterministic: two calls with the same `t` return
/// the same value, regardless of query order.
class LoadModel {
 public:
  virtual ~LoadModel() = default;

  /// External load (competing runnable processes, >= 0) at time t.
  [[nodiscard]] virtual double load_at(Seconds t) const = 0;

  /// Earliest time after t at which load_at may change: load_at is
  /// constant on [t, next_change(t)).  Seconds::infinity() when it never
  /// changes again.
  [[nodiscard]] virtual Seconds next_change(Seconds t) const = 0;

  [[nodiscard]] virtual std::unique_ptr<LoadModel> clone() const = 0;
};

/// Constant external load (dedicated node when load == 0).
class ConstantLoad final : public LoadModel {
 public:
  explicit ConstantLoad(double load = 0.0);
  [[nodiscard]] double load_at(Seconds) const override { return load_; }
  [[nodiscard]] Seconds next_change(Seconds) const override {
    return Seconds::infinity();
  }
  [[nodiscard]] std::unique_ptr<LoadModel> clone() const override;

 private:
  double load_;
};

/// Scripted step changes: load is `segments[i].load` from `segments[i].start`
/// until the next segment.  Used to inject the "node degrades at t=X"
/// scenarios of the adaptation experiments.
class StepLoad final : public LoadModel {
 public:
  struct Segment {
    Seconds start;
    double load;
  };
  /// Segments must be sorted by finite start time; load before the first
  /// segment is `initial`.  Every load must be finite and >= 0.
  explicit StepLoad(std::vector<Segment> segments, double initial = 0.0);
  [[nodiscard]] double load_at(Seconds t) const override;
  [[nodiscard]] Seconds next_change(Seconds t) const override;
  [[nodiscard]] std::unique_ptr<LoadModel> clone() const override;

 private:
  std::vector<Segment> segments_;
  double initial_;
};

/// Smooth daily cycle: load = mean + amplitude * sin(2*pi*(t+phase)/period),
/// clamped at 0.  Grids see diurnal interactive-user load.  Integrals sample
/// it on a fixed 0.25 s grid, fine enough to track diurnal-scale variation.
class DiurnalLoad final : public LoadModel {
 public:
  /// Every parameter must be finite, and the period positive.
  DiurnalLoad(double mean, double amplitude, Seconds period,
              Seconds phase = Seconds::zero());
  [[nodiscard]] double load_at(Seconds t) const override;
  [[nodiscard]] Seconds next_change(Seconds t) const override;
  [[nodiscard]] std::unique_ptr<LoadModel> clone() const override;

 private:
  double mean_;
  double amplitude_;
  Seconds period_;
  Seconds phase_;
};

/// Mean-reverting bounded random walk, slotted.  Each slot the load moves by
/// a normal step pulled toward `mean`; values are clamped to [0, max_load].
class RandomWalkLoad final : public LoadModel {
 public:
  struct Params {
    double initial = 0.5;
    double mean = 0.5;        ///< value the walk reverts toward
    double reversion = 0.1;   ///< fraction of the gap closed per slot
    double step_stddev = 0.2;
    double max_load = 8.0;
    Seconds slot{1.0};
  };
  /// The slot must be finite and positive.
  RandomWalkLoad(Params params, std::uint64_t seed);
  [[nodiscard]] double load_at(Seconds t) const override;
  [[nodiscard]] Seconds next_change(Seconds t) const override;
  [[nodiscard]] std::unique_ptr<LoadModel> clone() const override;

 private:
  double slot_value(std::size_t k) const;

  Params params_;
  std::uint64_t seed_;
  // Memoised slot values; extended on demand.  Mutable: logically const
  // (value(k) is a pure function of seed), physically cached.
  mutable std::vector<double> cache_;
  mutable Rng rng_;
};

/// Two-state (idle/busy) Markov-modulated load, slotted.  Models bursty
/// batch arrivals: long quiet stretches punctuated by heavy episodes.
class BurstyLoad final : public LoadModel {
 public:
  struct Params {
    double idle_load = 0.1;
    double busy_load = 4.0;
    double p_idle_to_busy = 0.05;  ///< per-slot transition probability
    double p_busy_to_idle = 0.15;
    Seconds slot{1.0};
    bool start_busy = false;
  };
  /// The slot must be finite and positive, and both transition
  /// probabilities in [0, 1].
  BurstyLoad(Params params, std::uint64_t seed);
  [[nodiscard]] double load_at(Seconds t) const override;
  [[nodiscard]] Seconds next_change(Seconds t) const override;
  [[nodiscard]] std::unique_ptr<LoadModel> clone() const override;

 private:
  bool slot_busy(std::size_t k) const;

  Params params_;
  std::uint64_t seed_;
  mutable std::vector<char> cache_;  // 0 = idle, 1 = busy
  mutable Rng rng_;
};

/// Replay of a recorded load trace at fixed sample spacing; the last sample
/// extends to infinity, mirroring how NWS traces are replayed.
class TraceLoad final : public LoadModel {
 public:
  /// Samples must be finite and >= 0, the spacing finite and positive.
  TraceLoad(std::vector<double> samples, Seconds sample_spacing);
  [[nodiscard]] double load_at(Seconds t) const override;
  [[nodiscard]] Seconds next_change(Seconds t) const override;
  [[nodiscard]] std::unique_ptr<LoadModel> clone() const override;

 private:
  std::vector<double> samples_;
  Seconds spacing_;
};

/// Sum of component loads, clamped to [0, max_load].  Lets scenarios layer a
/// diurnal baseline under bursty episodes plus a scripted step.  The sum can
/// change only where a part does, so next_change is the earliest over the
/// parts: a diurnal part keeps its 0.25 s grid beside slotted parts, and a
/// step part takes effect at its own time.
class CompositeLoad final : public LoadModel {
 public:
  /// Parts must be non-null, and max_load finite and >= 0.
  explicit CompositeLoad(std::vector<std::unique_ptr<LoadModel>> parts,
                         double max_load = 64.0);
  CompositeLoad(const CompositeLoad& other);
  [[nodiscard]] double load_at(Seconds t) const override;
  [[nodiscard]] Seconds next_change(Seconds t) const override;
  [[nodiscard]] std::unique_ptr<LoadModel> clone() const override;

 private:
  std::vector<std::unique_ptr<LoadModel>> parts_;
  double max_load_;
};

/// Processor-sharing speed fraction for a node with `cores` cores running
/// one of our tasks against external load `load`.
[[nodiscard]] inline double sharing_fraction(double cores, double load) {
  const double competitors = std::max(0.0, load) + 1.0;
  if (competitors <= cores) return 1.0;
  return cores / competitors;
}

}  // namespace grasp::gridsim
