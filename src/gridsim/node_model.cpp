#include "gridsim/node_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace grasp::gridsim {

namespace {
// Bounds the compute_time integration: if a task cannot finish within this
// many load slots the node is effectively dead to us.
constexpr std::size_t kMaxIntegrationSlots = 10'000'000;
// Slot width used when the load model is continuous (slot_width() == 0);
// fine enough that diurnal-scale variation is tracked accurately.
constexpr double kContinuousStep = 0.25;

void check_window(const Downtime& w) {
  if (!std::isfinite(w.start.value) || !std::isfinite(w.end.value))
    throw std::invalid_argument("NodeModel: downtime bounds must be finite");
  if (w.end < w.start)
    throw std::invalid_argument("NodeModel: downtime ends before it starts");
}
}  // namespace

NodeModel::NodeModel(Params params)
    : id_(params.id),
      name_(std::move(params.name)),
      site_(params.site),
      base_speed_(params.base_speed_mops),
      cores_(params.cores),
      load_(params.load ? std::move(params.load)
                        : std::make_unique<ConstantLoad>(0.0)),
      downtimes_(std::move(params.downtimes)) {
  if (!std::isfinite(base_speed_) || base_speed_ <= 0.0)
    throw std::invalid_argument(
        "NodeModel: base speed must be positive and finite");
  if (!std::isfinite(cores_) || cores_ < 1.0)
    throw std::invalid_argument("NodeModel: cores must be finite and >= 1");
  for (std::size_t i = 0; i < downtimes_.size(); ++i) {
    check_window(downtimes_[i]);
    if (i > 0 && downtimes_[i].start < downtimes_[i - 1].end)
      throw std::invalid_argument("NodeModel: downtimes overlap or unsorted");
  }
  refresh_steady_speed();
}

NodeModel::NodeModel(const NodeModel& other)
    : id_(other.id_),
      name_(other.name_),
      site_(other.site_),
      base_speed_(other.base_speed_),
      cores_(other.cores_),
      load_(other.load_->clone()),
      downtimes_(other.downtimes_),
      steady_speed_(other.steady_speed_) {}

NodeModel& NodeModel::operator=(const NodeModel& other) {
  if (this == &other) return *this;
  id_ = other.id_;
  name_ = other.name_;
  site_ = other.site_;
  base_speed_ = other.base_speed_;
  cores_ = other.cores_;
  load_ = other.load_->clone();
  downtimes_ = other.downtimes_;
  steady_speed_ = other.steady_speed_;
  return *this;
}

void NodeModel::refresh_steady_speed() {
  const auto* constant = dynamic_cast<const ConstantLoad*>(load_.get());
  steady_speed_ = constant != nullptr && downtimes_.empty()
                      ? effective_speed(Seconds::zero())
                      : 0.0;
}

double NodeModel::load_at(Seconds t) const { return load_->load_at(t); }

bool NodeModel::is_down(Seconds t) const {
  for (const auto& w : downtimes_) {
    if (t >= w.start && t < w.end) return true;
    if (w.start > t) break;
  }
  return false;
}

double NodeModel::effective_speed(Seconds t) const {
  if (is_down(t)) return 0.0;
  return base_speed_ * sharing_fraction(cores_, load_->load_at(t));
}

Seconds NodeModel::skip_downtime(Seconds t) const {
  for (const auto& w : downtimes_) {
    if (t >= w.start && t < w.end) return w.end;
    if (w.start > t) break;
  }
  return t;
}

Seconds NodeModel::compute_time(Mops work, Seconds start) const {
  if (work.value <= 0.0) return Seconds::zero();
  const Seconds slot = load_->slot_width();
  const double step = slot.value > 0.0 ? slot.value : kContinuousStep;

  double t = start.value;
  double remaining = work.value;
  for (std::size_t iter = 0; iter < kMaxIntegrationSlots; ++iter) {
    double speed = steady_speed_;
    if (speed == 0.0) {
      t = skip_downtime(Seconds{t}).value;
      speed = effective_speed(Seconds{t});
    }
    // End of the current load slot (align to the slot grid so queries agree
    // with load_at's piecewise-constant semantics).
    const double slot_end = (std::floor(t / step) + 1.0) * step;
    if (speed <= 0.0) {
      t = slot_end;
      continue;
    }
    const double slot_capacity = speed * (slot_end - t);
    if (slot_capacity >= remaining) {
      t += remaining / speed;
      return Seconds{t - start.value};
    }
    remaining -= slot_capacity;
    t = slot_end;
  }
  return Seconds::infinity();
}

Mops NodeModel::work_done(Seconds start, Seconds until) const {
  if (until <= start) return Mops::zero();
  const Seconds slot = load_->slot_width();
  const double step = slot.value > 0.0 ? slot.value : kContinuousStep;

  double t = start.value;
  double done = 0.0;
  for (std::size_t iter = 0;
       iter < kMaxIntegrationSlots && t < until.value; ++iter) {
    double speed = steady_speed_;
    if (speed == 0.0) {
      t = skip_downtime(Seconds{t}).value;
      if (t >= until.value) break;
      speed = effective_speed(Seconds{t});
    }
    const double slot_end = (std::floor(t / step) + 1.0) * step;
    if (speed > 0.0) done += speed * (std::min(slot_end, until.value) - t);
    t = slot_end;
  }
  return Mops{done};
}

void NodeModel::set_load_model(std::unique_ptr<LoadModel> load) {
  if (!load) throw std::invalid_argument("NodeModel: null load model");
  load_ = std::move(load);
  refresh_steady_speed();
}

void NodeModel::add_downtime(Downtime window) {
  check_window(window);
  if (!downtimes_.empty() && window.start < downtimes_.back().end)
    throw std::invalid_argument("NodeModel: downtime overlaps existing window");
  downtimes_.push_back(window);
  refresh_steady_speed();
}

}  // namespace grasp::gridsim
