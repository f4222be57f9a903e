#include "gridsim/load_model.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

namespace grasp::gridsim {

namespace {

// DiurnalLoad's sampling grid: fine enough that diurnal-scale variation is
// tracked accurately.
constexpr double kDiurnalSampleStep = 0.25;

bool finite_non_negative(double v) { return std::isfinite(v) && v >= 0.0; }

bool positive_finite(Seconds s) {
  return std::isfinite(s.value) && s.value > 0.0;
}

// Index of the slot of width w holding t; times before 0 read slot 0.
std::size_t slot_index(Seconds t, double w) {
  return t.value <= 0.0 ? 0 : static_cast<std::size_t>(t.value / w);
}

// End of the cell of width w holding t: the first time at which
// floor(t / w), and so slot_index, moves on.  The product (k + 1) * w can
// round to either side of the point where t / w reaches k + 1, so step it
// by ulps until it agrees: then every time in [t, end) reads t's slot and
// `end` reads the next one.
Seconds slot_end(Seconds t, double w) {
  const double k = std::floor(t.value / w);
  double end = (k + 1.0) * w;
  while (std::floor(end / w) <= k) end = std::nextafter(end, HUGE_VAL);
  while (std::floor(std::nextafter(end, -HUGE_VAL) / w) > k)
    end = std::nextafter(end, -HUGE_VAL);
  return Seconds{end};
}

}  // namespace

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
  if (!finite_non_negative(initial))
    throw std::invalid_argument(
        "StepLoad: initial load must be finite and >= 0");
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    if (!std::isfinite(segments_[i].start.value))
      throw std::invalid_argument("StepLoad: segment start must be finite");
    if (!finite_non_negative(segments_[i].load))
      throw std::invalid_argument(
          "StepLoad: segment load must be finite and >= 0");
    if (i > 0 && segments_[i].start < segments_[i - 1].start)
      throw std::invalid_argument("StepLoad: segments not sorted");
  }
}

double StepLoad::load_at(Seconds t) const {
  double current = initial_;
  for (const auto& seg : segments_) {
    if (seg.start > t) break;
    current = seg.load;
  }
  return current;
}

Seconds StepLoad::next_change(Seconds t) const {
  for (const auto& seg : segments_)
    if (seg.start > t) return seg.start;
  return Seconds::infinity();
}

std::unique_ptr<LoadModel> StepLoad::clone() const {
  return std::make_unique<StepLoad>(*this);
}

// ----------------------------------------------------------------- Diurnal
DiurnalLoad::DiurnalLoad(double mean, double amplitude, Seconds period,
                         Seconds phase)
    : mean_(mean), amplitude_(amplitude), period_(period), phase_(phase) {
  if (!positive_finite(period))
    throw std::invalid_argument(
        "DiurnalLoad: period must be finite and positive");
  if (!std::isfinite(mean) || !std::isfinite(amplitude) ||
      !std::isfinite(phase.value))
    throw std::invalid_argument(
        "DiurnalLoad: mean, amplitude and phase must be finite");
}

double DiurnalLoad::load_at(Seconds t) const {
  const double angle =
      2.0 * std::numbers::pi * (t.value + phase_.value) / period_.value;
  return std::max(0.0, mean_ + amplitude_ * std::sin(angle));
}

Seconds DiurnalLoad::next_change(Seconds t) const {
  return slot_end(t, kDiurnalSampleStep);
}

std::unique_ptr<LoadModel> DiurnalLoad::clone() const {
  return std::make_unique<DiurnalLoad>(*this);
}

// --------------------------------------------------------------- RandomWalk
RandomWalkLoad::RandomWalkLoad(Params params, std::uint64_t seed)
    : params_(params), seed_(seed), rng_(seed) {
  if (!positive_finite(params_.slot))
    throw std::invalid_argument(
        "RandomWalkLoad: slot must be finite and positive");
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
  return slot_value(slot_index(t, params_.slot.value));
}

Seconds RandomWalkLoad::next_change(Seconds t) const {
  return slot_end(t, params_.slot.value);
}

std::unique_ptr<LoadModel> RandomWalkLoad::clone() const {
  // Clones restart from the seed so they replay the identical trajectory.
  return std::make_unique<RandomWalkLoad>(params_, seed_);
}

// ------------------------------------------------------------------ Bursty
BurstyLoad::BurstyLoad(Params params, std::uint64_t seed)
    : params_(params), seed_(seed), rng_(seed) {
  if (!positive_finite(params_.slot))
    throw std::invalid_argument("BurstyLoad: slot must be finite and positive");
  for (const double p : {params_.p_idle_to_busy, params_.p_busy_to_idle})
    if (!(p >= 0.0 && p <= 1.0))
      throw std::invalid_argument(
          "BurstyLoad: transition probabilities must be in [0, 1]");
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
  return slot_busy(slot_index(t, params_.slot.value)) ? params_.busy_load
                                                      : params_.idle_load;
}

Seconds BurstyLoad::next_change(Seconds t) const {
  return slot_end(t, params_.slot.value);
}

std::unique_ptr<LoadModel> BurstyLoad::clone() const {
  return std::make_unique<BurstyLoad>(params_, seed_);
}

// ------------------------------------------------------------------- Trace
TraceLoad::TraceLoad(std::vector<double> samples, Seconds sample_spacing)
    : samples_(std::move(samples)), spacing_(sample_spacing) {
  if (samples_.empty())
    throw std::invalid_argument("TraceLoad: empty trace");
  if (!positive_finite(spacing_))
    throw std::invalid_argument(
        "TraceLoad: spacing must be finite and positive");
  for (const double v : samples_)
    if (!finite_non_negative(v))
      throw std::invalid_argument("TraceLoad: samples must be finite and >= 0");
}

double TraceLoad::load_at(Seconds t) const {
  const std::size_t k = slot_index(t, spacing_.value);
  return k < samples_.size() ? samples_[k] : samples_.back();
}

Seconds TraceLoad::next_change(Seconds t) const {
  // The last sample holds forever.
  if (slot_index(t, spacing_.value) + 1 >= samples_.size())
    return Seconds::infinity();
  return slot_end(t, spacing_.value);
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
  for (const auto& p : parts_)
    if (!p) throw std::invalid_argument("CompositeLoad: null component");
  if (!finite_non_negative(max_load_))
    throw std::invalid_argument(
        "CompositeLoad: max_load must be finite and >= 0");
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

Seconds CompositeLoad::next_change(Seconds t) const {
  Seconds earliest = Seconds::infinity();
  for (const auto& p : parts_) earliest = std::min(earliest, p->next_change(t));
  return earliest;
}

std::unique_ptr<LoadModel> CompositeLoad::clone() const {
  return std::make_unique<CompositeLoad>(*this);
}

}  // namespace grasp::gridsim
