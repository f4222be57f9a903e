#include "gridsim/node_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace grasp::gridsim {

namespace {
// Bounds the segment walks: if a task cannot finish within this many load
// or downtime segments the node is effectively dead to us.
constexpr std::size_t kMaxSegments = 10'000'000;

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
}

NodeModel::NodeModel(const NodeModel& other)
    : id_(other.id_),
      name_(other.name_),
      site_(other.site_),
      base_speed_(other.base_speed_),
      cores_(other.cores_),
      load_(other.load_->clone()),
      downtimes_(other.downtimes_) {}

NodeModel& NodeModel::operator=(const NodeModel& other) {
  if (this == &other) return *this;
  id_ = other.id_;
  name_ = other.name_;
  site_ = other.site_;
  base_speed_ = other.base_speed_;
  cores_ = other.cores_;
  load_ = other.load_->clone();
  downtimes_ = other.downtimes_;
  return *this;
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

NodeModel::Segment NodeModel::segment_from(double t) const {
  // Windows are sorted and disjoint: pass those over by t, then chain
  // through the windows that cover it.
  auto w = std::upper_bound(
      downtimes_.begin(), downtimes_.end(), t,
      [](double at, const Downtime& d) { return at < d.end.value; });
  for (; w != downtimes_.end() && w->start.value <= t; ++w) t = w->end.value;
  double end = load_->next_change(Seconds{t}).value;
  if (w != downtimes_.end()) end = std::min(end, w->start.value);
  return {t, end,
          base_speed_ * sharing_fraction(cores_, load_->load_at(Seconds{t}))};
}

Seconds NodeModel::compute_time(Mops work, Seconds start) const {
  if (work.value <= 0.0) return Seconds::zero();
  double t = start.value;
  double remaining = work.value;
  for (std::size_t i = 0; i < kMaxSegments; ++i) {
    const Segment seg = segment_from(t);
    const double capacity = seg.speed * (seg.end - seg.begin);
    if (capacity >= remaining)
      return Seconds{seg.begin + remaining / seg.speed - start.value};
    remaining -= capacity;
    t = seg.end;
  }
  return Seconds::infinity();
}

Mops NodeModel::work_done(Seconds start, Seconds until) const {
  double t = start.value;
  double done = 0.0;
  for (std::size_t i = 0; i < kMaxSegments && t < until.value; ++i) {
    const Segment seg = segment_from(t);
    if (seg.begin >= until.value) break;
    done += seg.speed * (std::min(seg.end, until.value) - seg.begin);
    t = seg.end;
  }
  return Mops{done};
}

void NodeModel::set_load_model(std::unique_ptr<LoadModel> load) {
  if (!load) throw std::invalid_argument("NodeModel: null load model");
  load_ = std::move(load);
}

void NodeModel::add_downtime(Downtime window) {
  check_window(window);
  if (!downtimes_.empty() && window.start < downtimes_.back().end)
    throw std::invalid_argument("NodeModel: downtime overlaps existing window");
  downtimes_.push_back(window);
}

}  // namespace grasp::gridsim
