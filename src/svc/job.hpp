// Job model for the GridService layer.
//
// A job is one complete skeleton run — a task farm over a TaskSet or a
// pipeline over a PipelineSpec — bundled with the engine parameters it
// should run under.  The service admits jobs against a shared node pool,
// carves each one an allocation (fair_share.hpp), and drives the engine
// to completion; the JobHandle returned by submit() is the caller's view
// of that lifecycle.
//
// detail::JobState is the service-side record, read and written only on
// the thread that calls the service (GridService steps every tenant's
// engine from its own loop).
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/backend.hpp"
#include "core/pipeline.hpp"
#include "core/task_farm.hpp"
#include "obs/telemetry.hpp"
#include "support/ids.hpp"
#include "svc/job_backend.hpp"
#include "workloads/task.hpp"

namespace grasp::svc {

/// One task-farm run: engine parameters plus the work itself.
struct FarmJob {
  core::FarmParams params;
  workloads::TaskSet tasks;
};

/// One pipeline run.
struct PipelineJob {
  core::PipelineParams params;
  workloads::PipelineSpec spec;
  std::size_t item_count = 0;
};

enum class JobStatus {
  Queued,     ///< admitted to the service, waiting for an allocation
  Running,    ///< engine live on its allocation
  Completed,  ///< engine returned a report
  Failed,     ///< engine threw; see JobHandle::error_message / rethrow
  Rejected,   ///< refused at submit (queue bound); never entered the queue
};

[[nodiscard]] const char* to_string(JobStatus status);

/// Per-job scheduling knobs, fixed at submit time.
struct JobOptions {
  /// Display name; empty becomes "job-<id>".
  std::string name;
  /// Weight in the fair-share-over-mops policy (> 0).
  double weight = 1.0;
  /// Allocation floor: the job stays queued until this many pool nodes are
  /// free (clamped to the pool size).
  std::size_t min_nodes = 1;
  /// Cap on the fraction of total pool capacity (in mops) this job may be
  /// granted, in (0, 1].  1.0 is work-conserving: a lone job takes every
  /// free node.  Setting it below 1 reserves headroom so a later arrival
  /// can run alongside instead of queueing behind a pool hog.
  double max_share = 1.0;
};

namespace detail {

struct JobState {
  // ---- identity / policy (immutable after submit) ----
  std::uint64_t seq = 0;  ///< 1-based; 0 is reserved for service timers
  std::string name;
  double weight = 1.0;
  std::size_t min_nodes = 1;
  double max_share = 1.0;
  std::variant<FarmJob, PipelineJob> spec;

  // ---- lifecycle (stable once terminal) ----
  JobStatus status = JobStatus::Queued;
  Seconds submitted_at{0.0};
  Seconds started_at{0.0};
  Seconds finished_at{0.0};
  std::vector<NodeId> nodes;  ///< allocation (kept after the job retires)
  std::optional<core::FarmReport> farm_report;
  std::optional<core::PipelineReport> pipeline_report;
  std::exception_ptr error;
  std::string error_message;

  // ---- telemetry ----
  // The job's private sink, when the service has a telemetry sink and the
  // caller supplied none: the service imports its contents into its shared
  // registry when the job retires.
  std::unique_ptr<obs::Telemetry> own_telemetry;

  // ---- engine (while running) ----
  std::optional<JobBackend> port;  ///< token translation and op counts
  std::unique_ptr<core::FarmEngine> farm_engine;
  std::unique_ptr<core::PipelineEngine> pipeline_engine;
  bool done = false;  ///< engine finished or threw; reaped next

  [[nodiscard]] core::Engine& engine() {
    if (farm_engine) return *farm_engine;
    return *pipeline_engine;
  }
};

}  // namespace detail

/// Caller-side view of a submitted job.  Cheap to copy (shared state).
///
/// Accessors are exact once the job is terminal and the service has
/// quiesced (wait()/wait_all() returned); they are not synchronized
/// against a live service loop, so mid-run reads from another thread are
/// advisory only.
class JobHandle {
 public:
  JobHandle() = default;

  [[nodiscard]] bool valid() const { return state_ != nullptr; }
  [[nodiscard]] std::uint64_t id() const { return state_->seq; }
  [[nodiscard]] const std::string& name() const { return state_->name; }
  [[nodiscard]] JobStatus status() const { return state_->status; }
  [[nodiscard]] Seconds submitted_at() const { return state_->submitted_at; }
  [[nodiscard]] Seconds started_at() const { return state_->started_at; }
  [[nodiscard]] Seconds finished_at() const { return state_->finished_at; }
  /// Nodes the job ran on (empty until admitted).
  [[nodiscard]] const std::vector<NodeId>& nodes() const {
    return state_->nodes;
  }

  [[nodiscard]] bool has_farm_report() const {
    return state_->farm_report.has_value();
  }
  [[nodiscard]] bool has_pipeline_report() const {
    return state_->pipeline_report.has_value();
  }
  /// Throws std::logic_error when the job is not a completed farm job.
  [[nodiscard]] const core::FarmReport& farm_report() const;
  [[nodiscard]] const core::PipelineReport& pipeline_report() const;

  /// Queueing delay: admission minus submission.
  [[nodiscard]] double queue_wait_s() const {
    return (state_->started_at - state_->submitted_at).value;
  }
  /// Per-tenant makespan: last completion minus admission.  (Engine
  /// reports carry absolute finish times; this rebases to the job's own
  /// start.)  Zero unless Completed.
  [[nodiscard]] double makespan_s() const;

  /// What the engine threw, as text ("" unless Failed).
  [[nodiscard]] const std::string& error_message() const {
    return state_->error_message;
  }
  /// Rethrow the captured engine exception; no-op unless Failed.
  void rethrow() const;

 private:
  friend class GridService;
  explicit JobHandle(std::shared_ptr<detail::JobState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::JobState> state_;
};

}  // namespace grasp::svc
