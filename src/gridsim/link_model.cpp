#include "gridsim/link_model.hpp"

#include <cmath>
#include <stdexcept>

namespace grasp::gridsim {

namespace {
// Bounds the segment walk, as NodeModel's does.
constexpr std::size_t kMaxSegments = 10'000'000;
}  // namespace

LinkModel::LinkModel(Params params)
    : id_(params.id),
      latency_(params.latency),
      bandwidth_(params.bandwidth),
      contention_(params.contention ? std::move(params.contention)
                                    : std::make_unique<ConstantLoad>(0.0)) {
  if (!std::isfinite(latency_.value) || latency_.value < 0.0)
    throw std::invalid_argument("LinkModel: latency must be finite and >= 0");
  if (!std::isfinite(bandwidth_.value) || bandwidth_.value <= 0.0)
    throw std::invalid_argument(
        "LinkModel: bandwidth must be finite and positive");
}

LinkModel::LinkModel(const LinkModel& other)
    : id_(other.id_),
      latency_(other.latency_),
      bandwidth_(other.bandwidth_),
      contention_(other.contention_->clone()) {}

LinkModel& LinkModel::operator=(const LinkModel& other) {
  if (this == &other) return *this;
  id_ = other.id_;
  latency_ = other.latency_;
  bandwidth_ = other.bandwidth_;
  contention_ = other.contention_->clone();
  return *this;
}

double LinkModel::contention_at(Seconds t) const {
  return contention_->load_at(t);
}

BytesPerSecond LinkModel::effective_bandwidth(Seconds t) const {
  const double flows = std::max(0.0, contention_->load_at(t)) + 1.0;
  return BytesPerSecond{bandwidth_.value / flows};
}

Seconds LinkModel::transfer_duration(Bytes payload, Seconds start) const {
  if (payload.value <= 0.0) return latency_;
  // Walk segments of constant contention; the last one finishes the payload.
  double t = start.value + latency_.value;
  double remaining = payload.value;
  for (std::size_t i = 0; i < kMaxSegments; ++i) {
    const double end = contention_->next_change(Seconds{t}).value;
    const double bw = effective_bandwidth(Seconds{t}).value;
    const double capacity = bw * (end - t);
    if (capacity >= remaining) return Seconds{t + remaining / bw - start.value};
    remaining -= capacity;
    t = end;
  }
  return Seconds::infinity();
}

}  // namespace grasp::gridsim
