#include "gridsim/load_model.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace grasp::gridsim {

// ---------------------------------------------------------------- Constant
ConstantLoad::ConstantLoad(double load) : load_(load) {
  if (!std::isfinite(load) || load < 0.0)
    throw std::invalid_argument("ConstantLoad: load must be finite and >= 0");
}

std::unique_ptr<LoadModel> ConstantLoad::clone() const {
  return std::make_unique<ConstantLoad>(*this);
}

// -------------------------------------------------------------------- Step
StepLoad::StepLoad(std::vector<Segment> segments, double initial)
    : segments_(std::move(segments)), initial_(initial) {
  for (std::size_t i = 1; i < segments_.size(); ++i) {
    if (segments_[i].start < segments_[i - 1].start)
      throw std::invalid_argument("StepLoad: segments not sorted");
  }
  if (initial < 0.0) throw std::invalid_argument("StepLoad: negative load");
}

double StepLoad::load_at(Seconds t) const {
  double current = initial_;
  for (const auto& seg : segments_) {
    if (seg.start > t) break;
    current = seg.load;
  }
  return current;
}

std::unique_ptr<LoadModel> StepLoad::clone() const {
  return std::make_unique<StepLoad>(*this);
}

// ----------------------------------------------------------------- Diurnal
DiurnalLoad::DiurnalLoad(double mean, double amplitude, Seconds period,
                         Seconds phase)
    : mean_(mean), amplitude_(amplitude), period_(period), phase_(phase) {
  if (period.value <= 0.0)
    throw std::invalid_argument("DiurnalLoad: period must be positive");
}

double DiurnalLoad::load_at(Seconds t) const {
  const double angle =
      2.0 * std::numbers::pi * (t.value + phase_.value) / period_.value;
  return std::max(0.0, mean_ + amplitude_ * std::sin(angle));
}

std::unique_ptr<LoadModel> DiurnalLoad::clone() const {
  return std::make_unique<DiurnalLoad>(*this);
}

// --------------------------------------------------------------- RandomWalk
RandomWalkLoad::RandomWalkLoad(Params params, std::uint64_t seed)
    : params_(params), seed_(seed), rng_(seed) {
  if (params_.slot.value <= 0.0)
    throw std::invalid_argument("RandomWalkLoad: slot must be positive");
  cache_.push_back(std::clamp(params_.initial, 0.0, params_.max_load));
}

double RandomWalkLoad::slot_value(std::size_t k) const {
  while (cache_.size() <= k) {
    const double prev = cache_.back();
    const double pulled =
        prev + params_.reversion * (params_.mean - prev);
    const double next = pulled + rng_.normal(0.0, params_.step_stddev);
    cache_.push_back(std::clamp(next, 0.0, params_.max_load));
  }
  return cache_[k];
}

double RandomWalkLoad::load_at(Seconds t) const {
  if (t.value < 0.0) return cache_.front();
  const auto k = static_cast<std::size_t>(t.value / params_.slot.value);
  return slot_value(k);
}

std::unique_ptr<LoadModel> RandomWalkLoad::clone() const {
  // Clones restart from the seed so they replay the identical trajectory.
  return std::make_unique<RandomWalkLoad>(params_, seed_);
}

// ------------------------------------------------------------------ Bursty
BurstyLoad::BurstyLoad(Params params, std::uint64_t seed)
    : params_(params), seed_(seed), rng_(seed) {
  if (params_.slot.value <= 0.0)
    throw std::invalid_argument("BurstyLoad: slot must be positive");
  cache_.push_back(params_.start_busy ? 1 : 0);
}

bool BurstyLoad::slot_busy(std::size_t k) const {
  while (cache_.size() <= k) {
    const bool busy = cache_.back() != 0;
    const double p = busy ? params_.p_busy_to_idle : params_.p_idle_to_busy;
    const bool flip = rng_.bernoulli(p);
    cache_.push_back(static_cast<char>((busy != flip) ? 1 : 0));
  }
  return cache_[k] != 0;
}

double BurstyLoad::load_at(Seconds t) const {
  if (t.value < 0.0) return cache_.front() != 0 ? params_.busy_load : params_.idle_load;
  const auto k = static_cast<std::size_t>(t.value / params_.slot.value);
  return slot_busy(k) ? params_.busy_load : params_.idle_load;
}

std::unique_ptr<LoadModel> BurstyLoad::clone() const {
  return std::make_unique<BurstyLoad>(params_, seed_);
}

// ------------------------------------------------------------------- Trace
TraceLoad::TraceLoad(std::vector<double> samples, Seconds sample_spacing)
    : samples_(std::move(samples)), spacing_(sample_spacing) {
  if (samples_.empty())
    throw std::invalid_argument("TraceLoad: empty trace");
  if (spacing_.value <= 0.0)
    throw std::invalid_argument("TraceLoad: spacing must be positive");
}

double TraceLoad::load_at(Seconds t) const {
  if (t.value <= 0.0) return samples_.front();
  const auto k = static_cast<std::size_t>(t.value / spacing_.value);
  if (k >= samples_.size()) return samples_.back();
  return samples_[k];
}

std::unique_ptr<LoadModel> TraceLoad::clone() const {
  return std::make_unique<TraceLoad>(*this);
}

// --------------------------------------------------------------- Composite
CompositeLoad::CompositeLoad(std::vector<std::unique_ptr<LoadModel>> parts,
                             double max_load)
    : parts_(std::move(parts)), max_load_(max_load) {
  if (parts_.empty())
    throw std::invalid_argument("CompositeLoad: no components");
}

CompositeLoad::CompositeLoad(const CompositeLoad& other)
    : max_load_(other.max_load_) {
  parts_.reserve(other.parts_.size());
  for (const auto& p : other.parts_) parts_.push_back(p->clone());
}

double CompositeLoad::load_at(Seconds t) const {
  double total = 0.0;
  for (const auto& p : parts_) total += p->load_at(t);
  return std::min(total, max_load_);
}

Seconds CompositeLoad::slot_width() const {
  // The finest non-zero component slot bounds how fast the sum can change.
  Seconds finest = Seconds::zero();
  for (const auto& p : parts_) {
    const Seconds w = p->slot_width();
    if (w.value > 0.0 && (finest.value == 0.0 || w < finest)) finest = w;
  }
  return finest;
}

std::unique_ptr<LoadModel> CompositeLoad::clone() const {
  return std::make_unique<CompositeLoad>(*this);
}

}  // namespace grasp::gridsim
