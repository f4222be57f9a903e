// Per-job op port: the seam that lets engines time-share one real backend.
//
// Each tenant's engine submits through a JobBackend instead of the
// service's real backend.  The port translates the engine's private op
// tokens into a pool-global space — the job's 1-based sequence number in
// the bits above kJobSeqShift, the engine's token below — so concurrent
// tenants' submissions never collide, and the service can route every
// completion coming off the real backend back to its owner (sequence 0 is
// reserved for the service's own job-arrival timers).
//
// It also counts the job's undelivered operations and armed timers.
// in_flight() therefore answers an engine's drain test with the job's own
// operations only, and idle() tells the service when a standalone backend
// would have answered wait_next with nullopt: the engine then gets
// on_idle(), which is how its deadlock detection keeps working under the
// service.
#pragma once

#include <stdexcept>
#include <string>

#include "core/backend.hpp"

namespace grasp::svc::detail {

/// Bit position splitting a global token into (job seq, local token).
inline constexpr unsigned kJobSeqShift = 40;
inline constexpr core::OpToken kLocalTokenMask =
    (core::OpToken{1} << kJobSeqShift) - 1;
/// Job sequence numbers occupy the bits above the shift; anything wider
/// would alias into another job's token space.
inline constexpr std::uint64_t kMaxJobSeq =
    (std::uint64_t{1} << (64 - kJobSeqShift)) - 1;

[[nodiscard]] inline core::OpToken to_global(std::uint64_t seq,
                                             core::OpToken local) {
  // Both halves must fit their fields: masking an overflowing local token
  // (or letting the seq carry into the high bits) would silently collide
  // with another tenant's ops and misroute its completions.
  if (local > kLocalTokenMask) {
    throw std::overflow_error(
        "JobBackend: local op token " + std::to_string(local) +
        " exceeds the 2^40-1 per-job token space");
  }
  if (seq > kMaxJobSeq) {
    throw std::overflow_error(
        "JobBackend: job sequence " + std::to_string(seq) +
        " exceeds the 2^24-1 job-id space");
  }
  return (seq << kJobSeqShift) | local;
}
[[nodiscard]] inline std::uint64_t seq_of(core::OpToken global) {
  return global >> kJobSeqShift;
}
[[nodiscard]] inline core::OpToken to_local(core::OpToken global) {
  return global & kLocalTokenMask;
}

class JobBackend final : public core::OpPort {
 public:
  JobBackend(core::OpPort& backend, std::uint64_t seq)
      : backend_(backend), seq_(seq) {}

  [[nodiscard]] Seconds now() const override { return backend_.now(); }
  void submit_compute(core::OpToken token, NodeId node, Mops work,
                      std::function<void()> body = {}) override;
  void submit_transfer(core::OpToken token, NodeId from, NodeId to,
                       Bytes payload) override;
  void submit_timer(core::OpToken token, Seconds delay) override;
  bool cancel_timer(core::OpToken token) override;
  void submit_batch(std::vector<core::OpRequest> requests) override;
  [[nodiscard]] double compute_progress(core::OpToken token) const override;
  [[nodiscard]] std::size_t in_flight() const override { return outstanding_; }

  /// Account a completion routed to this job, with its token translated
  /// back into the engine's own space.
  [[nodiscard]] core::Completion deliver(core::Completion completion);
  /// Nothing the engine submitted is in flight and no timer is armed.
  [[nodiscard]] bool idle() const {
    return outstanding_ == 0 && pending_timers_ == 0;
  }

 private:
  core::OpPort& backend_;
  std::uint64_t seq_;
  std::size_t outstanding_ = 0;     ///< non-timer ops submitted, undelivered
  std::size_t pending_timers_ = 0;  ///< armed timers, unfired and uncancelled
};

}  // namespace grasp::svc::detail
