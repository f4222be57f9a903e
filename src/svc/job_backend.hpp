// Per-job Backend proxy: the seam that lets unmodified engines time-share
// one real backend.
//
// Each threaded job runs its engine against a JobBackend instead of the
// service's real backend.  The proxy translates the engine's private op
// tokens into a pool-global space — the job's 1-based sequence number in
// the bits above kJobSeqShift, the engine's token below — so concurrent
// tenants' submissions never collide, and the service can route every
// completion coming off the real backend back to its owner (sequence 0 is
// reserved for the service's own job-arrival timers).
//
// wait_next is where the turn-based handoff lives.  When the job's inbox
// is empty but it still has work in flight, the turn holder pumps if the
// service sits in pump_one's grant with an empty queue: it pumps the real
// backend itself, keeps the turn while the completions are its own, and
// hands the turn straight to the tenant that owns the next one.  In every
// other case it parks the engine thread on the job's own wait object and
// hands the turn back to the service (grid_service.hpp documents the full
// protocol).  When the job has nothing in flight and no pending timer,
// wait_next returns nullopt immediately — the exact semantics a
// standalone backend gives a deadlocked engine, so engine error paths
// behave identically under the service.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>

#include "core/backend.hpp"
#include "svc/job.hpp"

namespace grasp::svc {

class GridService;

namespace detail {

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

class JobBackend final : public core::Backend {
 public:
  JobBackend(GridService& service, JobState& job)
      : service_(service), job_(job) {}

  [[nodiscard]] Seconds now() const override;
  void submit_compute(core::OpToken token, NodeId node, Mops work,
                      std::function<void()> body = {}) override;
  void submit_transfer(core::OpToken token, NodeId from, NodeId to,
                       Bytes payload) override;
  void submit_timer(core::OpToken token, Seconds delay) override;
  bool cancel_timer(core::OpToken token) override;
  void submit_batch(std::vector<core::OpRequest> requests) override;
  [[nodiscard]] double compute_progress(core::OpToken token) const override;
  [[nodiscard]] std::optional<core::Completion> wait_next() override;
  [[nodiscard]] std::size_t in_flight() const override;

 private:
  GridService& service_;
  JobState& job_;
};

}  // namespace detail
}  // namespace grasp::svc
