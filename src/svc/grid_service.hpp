// GridService: the resident job-stream scheduler.
//
// Before this layer, one TaskFarm::run owned the backend for its whole
// lifetime — one tenant, one job, then everything torn down.  The service
// inverts that: it owns the node pool for its own lifetime and *admits*
// jobs (farm or pipeline runs) against it.  Jobs arrive via submit() or
// on a scheduled backend timer via submit_at() (open-loop arrival
// streams), queue FIFO, and are started when the weighted
// fair-share-over-mops policy (fair_share.hpp) can cut them an
// allocation from the free part of the pool.  A pool-wide calibration
// cache (calibration_cache.hpp) is threaded through every job's
// CalibrationParams, so one tenant's Algorithm-1 measurements warm the
// next tenant's start.
//
// Execution model — the service has no thread of its own.  The caller's
// thread becomes the scheduler whenever it is inside wait()/wait_all(),
// and each *running* job owns one engine thread driving the unmodified
// run_engine loop against a JobBackend proxy.  Determinism is preserved
// by a strict turn-based handoff: a single token (`turn_`: 0 = the
// service, else a job's seq) says who may run.  Every actor parks on a
// wait object of its own (the service's `cv_`, each job's JobState::cv),
// and a handoff sets `turn_` and wakes exactly the actor whose turn it is,
// notifying after releasing the mutex so the woken thread does not block
// on it.  The service pumps the real backend one completion at a time and
// routes it (arrival timer → queue, job op → owner's inbox, retired
// tenant's zombie → dropped); a completion for a parked job hands that job
// the turn.  While the service sits in that grant with an empty queue,
// the turn holder pumps: an engine that blocks in wait_next with nothing
// routed to it calls the real backend itself and keeps the turn for its
// own completions, hands it straight to the tenant that owns the next
// one, and hands it back to the service for anything else (an arrival, a
// zombie, end-of-stream, a non-empty queue, or a handoff outside that
// grant, such as an engine's first turn).  The backend sees every call in
// the order the service alone would make them, exactly one actor touches
// it at any moment, and every handoff is an acquire/release pair on the
// one mutex, so runs are deterministic and TSan-clean.
//
// Inline fast path: with exactly one live job, no scheduled arrivals and
// force_threaded off, the service skips threads entirely and runs the
// engine inline on the caller's thread against the real backend — zero
// overhead, observably identical to calling run_engine directly.  This
// is what makes TaskFarm::run / Pipeline::run thin wrappers over a
// private single-tenant service without perturbing a single test.
//
// Thread-safety: all public methods must be called from one client
// thread (the engine threads are an implementation detail).  JobHandle
// accessors are exact once the handle is terminal and the service has
// quiesced.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/backend.hpp"
#include "gridsim/grid.hpp"
#include "obs/telemetry.hpp"
#include "svc/calibration_cache.hpp"
#include "svc/job.hpp"
#include "svc/job_backend.hpp"

namespace grasp::svc {

class GridService {
 public:
  struct Params {
    /// Cap on simultaneously running jobs; 0 = bounded by the pool only.
    std::size_t max_concurrent_jobs = 0;
    /// Admission control: a submit that would grow the wait queue past
    /// this bound is Rejected instead of queued (scheduled arrivals are
    /// checked when their timer fires).  Default: never reject.
    std::size_t max_queued_jobs = static_cast<std::size_t>(-1);
    /// Thread the pool-wide calibration cache through every job (cached
    /// spm entries stay fresh for 600 s, grid_service.cpp).
    bool use_calibration_cache = true;
    /// Shared observability sink (non-owning; may be null).  Service
    /// counters live here, and each retired job's private telemetry is
    /// imported under a "job.<seq>." metric prefix and a "job" span root
    /// (read back per-job with obs::filter_snapshot).
    obs::Telemetry* telemetry = nullptr;
    /// Disable the single-job inline fast path (tests: forces the
    /// threaded protocol even for one tenant).
    bool force_threaded = false;
  };

  /// The service schedules over `pool` (a subset of `grid`'s nodes) and
  /// resolves all costs through `backend`.  Both must outlive it.
  GridService(core::Backend& backend, const gridsim::Grid& grid,
              std::vector<NodeId> pool);
  GridService(core::Backend& backend, const gridsim::Grid& grid,
              std::vector<NodeId> pool, Params params);
  GridService(const GridService&) = delete;
  GridService& operator=(const GridService&) = delete;
  /// Cancels scheduled arrivals, drops queued jobs, and shuts down any
  /// running engines (they observe a premature end-of-stream and fail).
  ~GridService();

  // ---------------------------------------------------------- submission
  JobHandle submit(FarmJob job, JobOptions options = {});
  JobHandle submit(PipelineJob job, JobOptions options = {});
  /// Schedule a submission for absolute backend time `when` (clamped to
  /// now): the job materialises in the queue when the backend clock gets
  /// there, which is how open-loop arrival processes enter the service.
  JobHandle submit_at(Seconds when, FarmJob job, JobOptions options = {});
  JobHandle submit_at(Seconds when, PipelineJob job, JobOptions options = {});

  // ------------------------------------------------------------- waiting
  /// Drive the service until `handle` is terminal.  Rethrows the engine's
  /// exception when the job Failed (so the single-job wrapper surfaces
  /// exactly what run_engine would have thrown).
  void wait(const JobHandle& handle);
  /// Drive the service until every submitted and scheduled job is
  /// terminal.  Does not rethrow; inspect handles for failures.
  void wait_all();

  // ----------------------------------------------------------- inspection
  [[nodiscard]] const CalibrationCache& calibration_cache() const {
    return cache_;
  }
  [[nodiscard]] CalibrationCache& calibration_cache() { return cache_; }
  [[nodiscard]] const std::vector<NodeId>& pool() const { return pool_; }

  [[nodiscard]] std::size_t jobs_submitted() const;
  [[nodiscard]] std::size_t jobs_completed() const;
  [[nodiscard]] std::size_t jobs_failed() const;
  [[nodiscard]] std::size_t jobs_rejected() const;
  [[nodiscard]] std::size_t jobs_running() const;
  [[nodiscard]] std::size_t jobs_queued() const;
  /// Peak number of simultaneously running jobs over the service's life —
  /// the multi-tenancy witness the bench smoke gate asserts on.
  [[nodiscard]] std::size_t max_concurrent_observed() const;
  /// Times a queued head job's min_nodes was re-clamped because churn
  /// shrank live membership below it (head-of-line anti-starvation).
  [[nodiscard]] std::size_t min_nodes_reclamps() const;
  /// Every handle ever produced, in submission order.
  [[nodiscard]] std::vector<JobHandle> jobs() const;

 private:
  friend class detail::JobBackend;
  using StatePtr = std::shared_ptr<detail::JobState>;

  JobHandle submit_impl(std::variant<FarmJob, PipelineJob> spec,
                        JobOptions options, std::optional<Seconds> when);

  /// Run `job`'s engine against `backend` (dispatch on the spec variant).
  void execute(detail::JobState& job, core::Backend& backend);
  /// Inject the calibration cache and a per-job telemetry sink into the
  /// job's engine params (in place, pre-run).
  void prepare_params(detail::JobState& job);

  // Scheduler core; every method below requires mu_ held (via `lk` where
  // it takes one) and the service turn (turn_ == 0), except
  // await_completion, which a tenant runs on its own turn, and route,
  // hand_turn and invalidate_departed, which it calls.
  void pump_until(std::unique_lock<std::mutex>& lk,
                  const std::function<bool()>& done);
  bool pump_one(std::unique_lock<std::mutex>& lk);
  /// Deliver one completion off the real backend: an arrival timer queues
  /// (or rejects) its job, a job op lands in its owner's inbox, a retired
  /// tenant's zombie is dropped.  Returns the owner when it is a running
  /// job, else nullptr.
  detail::JobState* route(core::Completion completion);
  /// A tenant blocked in wait_next with an empty inbox.  While the service
  /// sits in pump_one's grant (tenants_pump_), pump one completion: keep
  /// the turn if it is `job`'s own, else hand it to the tenant it was
  /// routed to, or back to the service.  Otherwise hand the turn back.
  /// Returns once `job` holds the turn again.
  void await_completion(std::unique_lock<std::mutex>& lk,
                        detail::JobState& job);
  void try_admit(std::unique_lock<std::mutex>& lk);
  void start_job(std::unique_lock<std::mutex>& lk, const StatePtr& job,
                 std::vector<NodeId> allocation);
  void run_inline(std::unique_lock<std::mutex>& lk);
  void reap(std::unique_lock<std::mutex>& lk);
  void finalize(const StatePtr& job);
  /// Hand the turn from `self` to `to` (nullptr = the service, for
  /// either) and park `self` until the turn comes back to it.
  void hand_turn(std::unique_lock<std::mutex>& lk, detail::JobState* to,
                 detail::JobState* self);
  [[nodiscard]] bool inline_eligible() const;
  [[nodiscard]] detail::JobState* find_running(std::uint64_t seq) const;
  [[nodiscard]] double capacity_mops(NodeId node) const;
  /// Drop cached spm for nodes with a churn Crash/Leave in
  /// (churn_scan_, now]; advances the watermark.  No-op without a churn
  /// timeline or with the cache disabled.
  void invalidate_departed(Seconds now);
  void update_gauges();

  void job_thread_main(StatePtr job);

  core::Backend& backend_;
  const gridsim::Grid& grid_;
  std::vector<NodeId> pool_;
  Params params_;
  CalibrationCache cache_;
  obs::Telemetry* telemetry_ = nullptr;

  struct SvcMetrics {
    obs::CounterHandle submitted, completed, failed, rejected, reclamped;
    obs::GaugeHandle running, queued;
    obs::HistogramHandle queue_wait_s, makespan_s;
  } met_;

  mutable std::mutex mu_;
  /// The service's own wait object; each job parks on JobState::cv.
  std::condition_variable cv_;
  /// Whose move it is: 0 = the service loop, else a job's seq.
  std::uint64_t turn_ = 0;
  /// Set while the service is parked in pump_one's grant with an empty
  /// queue: the turn holder may pump the backend itself
  /// (JobBackend::wait_next).  Only an arrival can fill the queue, and it
  /// hands the turn back.  Every other turn (an engine's first, or one
  /// granted by the destructor) hands back to the service, which may have
  /// jobs to reap, admit or unwind before the next pump.
  bool tenants_pump_ = false;

  std::uint64_t next_seq_ = 1;
  std::vector<StatePtr> all_jobs_;
  std::deque<StatePtr> queue_;
  std::vector<StatePtr> running_;
  std::unordered_map<core::OpToken, StatePtr> pending_arrivals_;
  core::OpToken next_arrival_token_ = 1;

  std::size_t completed_ = 0;
  std::size_t failed_ = 0;
  std::size_t rejected_ = 0;
  std::size_t peak_running_ = 0;
  std::size_t min_nodes_reclamps_ = 0;
  /// High-water mark of the churn-event scan feeding cache invalidation.
  Seconds churn_scan_{0.0};
};

}  // namespace grasp::svc
