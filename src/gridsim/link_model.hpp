// Network link model: latency + shared bandwidth with dynamic contention.
//
// Message cost = latency + time to push the payload through the link's
// effective bandwidth, where effective bandwidth is the nominal bandwidth
// divided among our transfer and the competing flows given by a LoadModel
// (fair sharing, mirroring the CPU processor-sharing rule).
#pragma once

#include <memory>

#include "gridsim/load_model.hpp"
#include "support/ids.hpp"

namespace grasp::gridsim {

class LinkModel {
 public:
  struct Params {
    LinkId id;
    Seconds latency{1e-4};
    BytesPerSecond bandwidth{100e6};  ///< nominal, unshared
    /// Competing flows over time (0 = dedicated link).
    std::unique_ptr<LoadModel> contention;
  };

  /// Throws std::invalid_argument unless the latency is finite and >= 0
  /// and the bandwidth finite and positive.
  explicit LinkModel(Params params);
  LinkModel(const LinkModel& other);
  LinkModel& operator=(const LinkModel& other);
  LinkModel(LinkModel&&) noexcept = default;
  LinkModel& operator=(LinkModel&&) noexcept = default;

  [[nodiscard]] LinkId id() const { return id_; }
  [[nodiscard]] Seconds latency() const { return latency_; }
  [[nodiscard]] BytesPerSecond nominal_bandwidth() const { return bandwidth_; }

  /// Competing flows at time t.
  [[nodiscard]] double contention_at(Seconds t) const;

  /// Bandwidth our transfer receives at time t.
  [[nodiscard]] BytesPerSecond effective_bandwidth(Seconds t) const;

  /// Total time (latency + transmission) to move `payload` starting at
  /// `start`, integrating effective bandwidth across contention segments.
  [[nodiscard]] Seconds transfer_duration(Bytes payload, Seconds start) const;

 private:
  LinkId id_;
  Seconds latency_;
  BytesPerSecond bandwidth_;
  std::unique_ptr<LoadModel> contention_;
};

}  // namespace grasp::gridsim
