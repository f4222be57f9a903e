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
// next tenant's start.  A pool-wide monitor sample table
// (perfmon/monitor.hpp) is threaded through every job's monitor params
// the same way: a tenant admitted at T copies its monitor's back-fill
// over (0, T] from it instead of re-sampling the grid from t = 0.
//
// Execution model — one loop, no threads.  The caller's thread becomes
// the scheduler whenever it is inside wait()/wait_all(): it pumps the real
// backend one completion at a time and routes it (arrival timer → queue,
// job op → its owner's engine, retired tenant's zombie → dropped).  Each
// running job is an event-driven engine (core/engine.hpp) submitting
// through a detail::JobBackend port; routing a completion calls the
// owner's on(), which runs the engine until it needs its next completion.
// When a job's port has nothing in flight and no timer armed, the engine
// gets on_idle() straight away, as a standalone backend would answer its
// wait_next with nullopt.  Everything runs on the client thread in one
// fixed order, so SimBackend runs stay deterministic however many tenants
// are live, and a lone tenant granted the whole pool runs exactly as the
// same engine does under TaskFarm::run or Pipeline::run.
//
// Thread-safety: all public methods must be called from one client
// thread.  JobHandle accessors are exact once the handle is terminal and
// the service has quiesced.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <variant>
#include <vector>

#include "core/backend.hpp"
#include "gridsim/grid.hpp"
#include "obs/telemetry.hpp"
#include "perfmon/monitor.hpp"
#include "svc/calibration_cache.hpp"
#include "svc/job.hpp"

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
    /// spm entries stay fresh for kCalibrationMaxAge = 600 s,
    /// grid_service.cpp).
    bool use_calibration_cache = true;
    /// Shared observability sink (non-owning; may be null).  Service
    /// counters live here, and each retired job's private telemetry is
    /// imported under a "job.<seq>." metric prefix and a "job" span root
    /// (read back per-job with obs::filter_snapshot).
    obs::Telemetry* telemetry = nullptr;
  };

  /// The service schedules over `pool` (a subset of `grid`'s nodes) and
  /// resolves all costs through `backend`.  Both must outlive it.
  GridService(core::Backend& backend, const gridsim::Grid& grid,
              std::vector<NodeId> pool);
  GridService(core::Backend& backend, const gridsim::Grid& grid,
              std::vector<NodeId> pool, Params params);
  GridService(const GridService&) = delete;
  GridService& operator=(const GridService&) = delete;
  /// Cancels scheduled arrivals, drops queued jobs (their handles stay
  /// Queued), and shuts down any running engines: they observe a premature
  /// end-of-stream and fail.
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
  /// exception when the job Failed.
  void wait(const JobHandle& handle);
  /// Drive the service until every submitted and scheduled job is
  /// terminal.  Does not rethrow; inspect handles for failures.
  void wait_all();

  // ----------------------------------------------------------- inspection
  [[nodiscard]] const CalibrationCache& calibration_cache() const {
    return cache_;
  }
  [[nodiscard]] CalibrationCache& calibration_cache() { return cache_; }
  [[nodiscard]] const perfmon::SampleTable& sample_table() const {
    return samples_;
  }
  [[nodiscard]] const std::vector<NodeId>& pool() const { return pool_; }

  [[nodiscard]] std::size_t jobs_submitted() const { return all_jobs_.size(); }
  [[nodiscard]] std::size_t jobs_completed() const { return completed_; }
  [[nodiscard]] std::size_t jobs_failed() const { return failed_; }
  [[nodiscard]] std::size_t jobs_rejected() const { return rejected_; }
  [[nodiscard]] std::size_t jobs_running() const { return running_.size(); }
  [[nodiscard]] std::size_t jobs_queued() const { return queue_.size(); }
  /// Peak number of simultaneously running jobs over the service's life —
  /// the multi-tenancy witness the bench smoke gate asserts on.
  [[nodiscard]] std::size_t max_concurrent_observed() const {
    return peak_running_;
  }
  /// Times a queued head job's min_nodes was re-clamped because churn
  /// shrank live membership below it (head-of-line anti-starvation).
  [[nodiscard]] std::size_t min_nodes_reclamps() const {
    return min_nodes_reclamps_;
  }
  /// Every handle ever produced, in submission order.
  [[nodiscard]] std::vector<JobHandle> jobs() const;

 private:
  using StatePtr = std::shared_ptr<detail::JobState>;

  JobHandle submit_impl(std::variant<FarmJob, PipelineJob> spec,
                        JobOptions options, std::optional<Seconds> when);

  /// Inject the calibration cache, the monitor sample table and a per-job
  /// telemetry sink into the job's engine params (in place, pre-run).
  void prepare_params(detail::JobState& job);

  // Scheduler core.
  void pump_until(const std::function<bool()>& done);
  /// Deliver one completion off the real backend: an arrival timer queues
  /// (or rejects) its job, a job op steps its owner's engine, a retired
  /// tenant's zombie is dropped.  False when the backend had nothing left.
  bool pump_one();
  /// Start queued jobs, head first, while the head gets an allocation.
  /// Runs after every event, but a head found waiting is evaluated again
  /// only once something its verdict read has changed: the running
  /// tenants, the cache's contents, the expiry of its oldest fresh entry,
  /// or the next churn event.  Until then the call returns at once.
  void try_admit();
  /// The recorded verdict on the queue's head still stands at `now`.
  [[nodiscard]] bool head_still_waits(Seconds now) const;
  void start_job(const StatePtr& job, std::vector<NodeId> allocation);
  /// Step `job`'s engine with one completion, or with end-of-stream when
  /// `completion` is null, then settle it.
  void step(detail::JobState& job, const core::Completion* completion);
  /// Hand the engine on_idle() for as long as its port is idle, as a
  /// standalone backend would answer wait_next with nullopt; collect the
  /// report once it finishes.
  void settle(detail::JobState& job);
  /// Record the exception in flight as the job's failure.
  void fail(detail::JobState& job);
  /// Retire every done tenant, in running order.  O(1) when none finished
  /// since the last call.
  void reap();
  void finalize(const StatePtr& job);
  [[nodiscard]] detail::JobState* find_running(std::uint64_t seq) const;
  [[nodiscard]] double capacity_mops(NodeId node) const;
  /// Drop cached spm for nodes with a churn Crash/Leave in
  /// (churn_scan_, now] (none with the cache disabled), then move the
  /// watermark to `now` and next_churn_ past it.  Returns at once while
  /// now < next_churn_: no churn event lies in (churn_scan_, now] then.
  void invalidate_departed(Seconds now);
  void update_gauges();

  core::Backend& backend_;
  const gridsim::Grid& grid_;
  std::vector<NodeId> pool_;
  Params params_;
  CalibrationCache cache_;
  /// Shared monitor back-fill, for tenants with the default monitor
  /// period, forecaster and history and noise-free sensors.
  perfmon::SampleTable samples_;
  obs::Telemetry* telemetry_ = nullptr;

  struct SvcMetrics {
    obs::CounterHandle submitted, completed, failed, rejected, reclamped;
    obs::GaugeHandle running, queued;
    obs::HistogramHandle queue_wait_s, makespan_s;
  } met_;

  std::uint64_t next_seq_ = 1;
  std::vector<StatePtr> all_jobs_;
  std::deque<StatePtr> queue_;
  std::vector<StatePtr> running_;
  std::unordered_map<core::OpToken, StatePtr> pending_arrivals_;
  core::OpToken next_arrival_token_ = 1;

  /// Tenants marked done (settle/fail) and not yet reaped.
  std::size_t unreaped_ = 0;
  std::size_t completed_ = 0;
  std::size_t failed_ = 0;
  std::size_t rejected_ = 0;
  std::size_t peak_running_ = 0;
  std::size_t min_nodes_reclamps_ = 0;
  /// High-water mark of the churn-event scan feeding cache invalidation.
  Seconds churn_scan_{0.0};
  /// First churn event after churn_scan_ (0 before the first scan, +inf
  /// without a timeline).
  Seconds next_churn_{0.0};
  /// Bumped whenever running_ gains or loses a job.
  std::uint64_t tenant_epoch_ = 0;
  /// What try_admit's last "the head waits" verdict read.
  struct WaitingHead {
    std::uint64_t seq = 0;      ///< the head job
    std::uint64_t tenants = 0;  ///< tenant_epoch_
    std::uint64_t cache = 0;    ///< cache_.version()
    Seconds oldest_fresh;       ///< cache_.oldest_fresh(now)
    Seconds next_churn;         ///< first churn event after now
  };
  std::optional<WaitingHead> waiting_;
};

}  // namespace grasp::svc
