#include "svc/grid_service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/flight_recorder.hpp"
#include "support/flat_map.hpp"
#include "svc/fair_share.hpp"

namespace grasp::svc {

namespace {

/// Freshness horizon for cached spm entries.
constexpr Seconds kCalibrationMaxAge{600.0};

[[nodiscard]] bool terminal(JobStatus s) {
  return s == JobStatus::Completed || s == JobStatus::Failed ||
         s == JobStatus::Rejected;
}

}  // namespace

GridService::GridService(core::Backend& backend, const gridsim::Grid& grid,
                         std::vector<NodeId> pool)
    : GridService(backend, grid, std::move(pool), Params{}) {}

GridService::GridService(core::Backend& backend, const gridsim::Grid& grid,
                         std::vector<NodeId> pool, Params params)
    : backend_(backend),
      grid_(grid),
      pool_(std::move(pool)),
      params_(params),
      cache_(CalibrationCache::Params{kCalibrationMaxAge}),
      samples_(grid, perfmon::MonitorDaemon::Params{}),
      telemetry_(params.telemetry) {
  if (telemetry_ != nullptr) {
    auto& m = telemetry_->metrics;
    met_.submitted = m.counter("svc.jobs_submitted");
    met_.completed = m.counter("svc.jobs_completed");
    met_.failed = m.counter("svc.jobs_failed");
    met_.rejected = m.counter("svc.jobs_rejected");
    met_.reclamped = m.counter("svc.min_nodes_reclamped");
    met_.running = m.gauge("svc.jobs_running");
    met_.queued = m.gauge("svc.jobs_queued");
    met_.queue_wait_s = m.histogram("svc.queue_wait_s");
    met_.makespan_s = m.histogram("svc.job_makespan_s");
  }
}

GridService::~GridService() {
  // Scheduled arrivals die with the service.
  for (const auto& [token, job] : pending_arrivals_)
    backend_.cancel_timer(token);
  pending_arrivals_.clear();
  // Queued jobs never ran; drop them (their handles stay Queued).
  queue_.clear();
  // Running engines observe a premature end-of-stream, one job at a time,
  // until each has failed (or finished what it could without the backend).
  for (;;) {
    reap();
    if (running_.empty()) break;
    detail::JobState& job = *running_.front();
    while (!job.done) step(job, nullptr);
  }
}

// ------------------------------------------------------------ submission

JobHandle GridService::submit(FarmJob job, JobOptions options) {
  return submit_impl(std::move(job), std::move(options), std::nullopt);
}

JobHandle GridService::submit(PipelineJob job, JobOptions options) {
  return submit_impl(std::move(job), std::move(options), std::nullopt);
}

JobHandle GridService::submit_at(Seconds when, FarmJob job,
                                 JobOptions options) {
  return submit_impl(std::move(job), std::move(options), when);
}

JobHandle GridService::submit_at(Seconds when, PipelineJob job,
                                 JobOptions options) {
  return submit_impl(std::move(job), std::move(options), when);
}

JobHandle GridService::submit_impl(std::variant<FarmJob, PipelineJob> spec,
                                   JobOptions options,
                                   std::optional<Seconds> when) {
  // Written to fail on NaN and inf: an infinite weight would make the
  // fair-share target inf/inf = NaN and hand the job every free node.
  if (!(std::isfinite(options.weight) && options.weight > 0.0))
    throw std::invalid_argument(
        "GridService: job weight must be finite and > 0");
  if (!(options.max_share > 0.0 && options.max_share <= 1.0))
    throw std::invalid_argument("GridService: max_share must be in (0, 1]");

  auto job = std::make_shared<detail::JobState>();
  job->seq = next_seq_++;
  job->name = options.name.empty() ? "job-" + std::to_string(job->seq)
                                   : std::move(options.name);
  job->weight = options.weight;
  job->min_nodes = std::max<std::size_t>(options.min_nodes, 1);
  if (!pool_.empty()) job->min_nodes = std::min(job->min_nodes, pool_.size());
  job->max_share = options.max_share;
  job->spec = std::move(spec);
  all_jobs_.push_back(job);
  if (telemetry_ != nullptr) telemetry_->metrics.inc(met_.submitted);

  if (when.has_value()) {
    // Materialise at backend time `when` via a service-owned timer (job
    // sequence 0 in the global token space).
    const Seconds delay{
        std::max(0.0, when->value - backend_.now().value)};
    const core::OpToken token = next_arrival_token_++;
    pending_arrivals_.emplace(token, job);
    backend_.submit_timer(token, delay);
    return JobHandle(job);
  }

  // Jobs queued behind a tenant that has since retired may fit now: admit
  // whatever actually fits before judging this submit against the queue
  // bound, so admissible jobs do not count as backlog.
  if (!queue_.empty()) try_admit();
  if (queue_.size() >= params_.max_queued_jobs) {
    job->status = JobStatus::Rejected;
    ++rejected_;
    if (telemetry_ != nullptr) telemetry_->metrics.inc(met_.rejected);
    return JobHandle(job);
  }
  job->submitted_at = backend_.now();
  queue_.push_back(job);
  update_gauges();
  // Admitted eagerly: an engine starts, and runs to its first wait, here.
  try_admit();
  return JobHandle(job);
}

// --------------------------------------------------------------- waiting

void GridService::wait(const JobHandle& handle) {
  if (!handle.valid())
    throw std::invalid_argument("GridService::wait: invalid handle");
  const auto& state = *handle.state_;
  pump_until([&] { return terminal(state.status); });
  if (state.status == JobStatus::Failed && state.error)
    std::rethrow_exception(state.error);
}

void GridService::wait_all() {
  pump_until([&] {
    return pending_arrivals_.empty() &&
           completed_ + failed_ + rejected_ == all_jobs_.size();
  });
}

// -------------------------------------------------------- scheduler core

void GridService::pump_until(const std::function<bool()>& done) {
  for (;;) {
    reap();
    if (done()) return;
    try_admit();
    reap();  // an admitted engine may run to completion on its first step
    if (done()) return;
    if (running_.empty() && pending_arrivals_.empty()) {
      // Nothing can make progress: the predicate waits on a job that is
      // neither running nor able to arrive (e.g. wait() on a handle
      // whose service was saturated by max_concurrent_jobs = 0 jobs).
      // try_admit always admits onto an idle pool, so reaching here with
      // a pending predicate means the caller waits on a dropped job.
      return;
    }
    if (!pump_one()) {
      // Backend has nothing in flight but live jobs remain — deliver the
      // end-of-stream verdict so their engines can unwind.
      const auto live =
          std::find_if(running_.begin(), running_.end(),
                       [](const StatePtr& job) { return !job->done; });
      if (live == running_.end()) return;
      step(**live, nullptr);
    }
  }
}

bool GridService::pump_one() {
  const auto completion = backend_.wait_next();
  if (!completion.has_value()) return false;
  const std::uint64_t seq = detail::seq_of(completion->token);
  if (seq == 0) {
    // Service arrival timer: the scheduled job materialises now.
    const auto it = pending_arrivals_.find(completion->token);
    if (it == pending_arrivals_.end()) return true;  // cancelled
    const StatePtr job = it->second;
    pending_arrivals_.erase(it);
    if (queue_.size() >= params_.max_queued_jobs) {
      job->status = JobStatus::Rejected;
      ++rejected_;
      if (telemetry_ != nullptr) telemetry_->metrics.inc(met_.rejected);
      return true;
    }
    job->submitted_at = backend_.now();
    queue_.push_back(job);
    update_gauges();
    return true;
  }
  // A retired tenant's completion (a zombie or late duplicate) is dropped.
  detail::JobState* owner = find_running(seq);
  if (owner == nullptr || owner->done) return true;
  const core::Completion local = owner->port->deliver(*completion);
  step(*owner, &local);
  return true;
}

void GridService::try_admit() {
  const Seconds now = backend_.now();
  invalidate_departed(now);
  if (queue_.empty() || head_still_waits(now)) {
    update_gauges();
    return;
  }
  // Allocate only over live members: handing a crashed/departed node to a
  // tenant wastes its allocation (and an all-dead grant kills the engine
  // at t=0).  Churn-free grids take the identity path.
  const gridsim::ChurnTimeline* churn = grid_.churn();
  std::vector<NodeId> members;
  if (churn != nullptr) members = churn->members_at(pool_, now);
  const std::vector<NodeId>& live = churn != nullptr ? members : pool_;
  // Reused across head iterations: each admission re-derives them.
  NodeMap<char> busy;
  std::vector<NodeCapacity> free_nodes;
  // The head waits: record what this verdict read.
  const auto note_wait = [&](const detail::JobState& head) {
    waiting_ = WaitingHead{head.seq, tenant_epoch_, cache_.version(),
                           cache_.oldest_fresh(now), next_churn_};
  };
  while (!queue_.empty()) {
    if (params_.max_concurrent_jobs != 0 &&
        running_.size() >= params_.max_concurrent_jobs)
      break;
    const StatePtr job = queue_.front();
    if (pool_.empty()) {
      // Let the engine issue its own empty-pool diagnosis.
      queue_.pop_front();
      start_job(job, {});
      continue;
    }
    if (live.empty()) {  // nobody alive: the head waits for a rejoin
      note_wait(*job);
      break;
    }
    // min_nodes was clamped against the pool at submit; churn may have
    // shrunk live membership below it since, and with FIFO head-only
    // admission an unclamped head would starve the whole queue forever.
    if (job->min_nodes > live.size()) {
      job->min_nodes = live.size();
      ++min_nodes_reclamps_;
      if (telemetry_ != nullptr) telemetry_->metrics.inc(met_.reclamped);
    }
    busy.clear();
    for (const auto& r : running_)
      for (const NodeId node : r->nodes) busy[node] = 1;
    double running_weight = 0.0;
    for (const auto& r : running_) running_weight += r->weight;
    free_nodes.clear();
    double total_mops = 0.0;
    for (const NodeId node : live) {
      const double mops = capacity_mops(node);
      total_mops += mops;
      if (busy.at_or_default(node) == 0) free_nodes.push_back({node, mops});
    }
    std::vector<NodeId> allocation = pick_allocation(
        free_nodes, total_mops, running_weight,
        ShareRequest{job->weight, job->min_nodes, job->max_share});
    if (allocation.empty()) {  // head-of-line waits: FIFO, no skipping
      note_wait(*job);
      break;
    }
    queue_.pop_front();
    start_job(job, std::move(allocation));
  }
  update_gauges();
}

bool GridService::head_still_waits(Seconds now) const {
  return waiting_.has_value() && waiting_->seq == queue_.front()->seq &&
         waiting_->tenants == tenant_epoch_ &&
         waiting_->cache == cache_.version() &&
         !cache_.expired(waiting_->oldest_fresh, now) &&
         now < waiting_->next_churn;
}

void GridService::invalidate_departed(Seconds now) {
  if (now < next_churn_) return;
  const gridsim::ChurnTimeline* churn = grid_.churn();
  if (churn == nullptr) {
    next_churn_ = Seconds{std::numeric_limits<double>::infinity()};
    return;
  }
  if (params_.use_calibration_cache) {
    for (const auto& ev : churn->events_between(churn_scan_, now)) {
      if (ev.kind == gridsim::ChurnEventKind::Crash ||
          ev.kind == gridsim::ChurnEventKind::Leave)
        cache_.invalidate(ev.node);
    }
  }
  churn_scan_ = now;
  next_churn_ = churn->next_event_after(now);
}

double GridService::capacity_mops(NodeId node) const {
  if (params_.use_calibration_cache) {
    const auto cached = cache_.lookup(node, backend_.now());
    if (cached.has_value() && *cached > 0.0) return 1.0 / *cached;
  }
  return grid_.node(node).base_speed_mops();
}

void GridService::start_job(const StatePtr& job,
                            std::vector<NodeId> allocation) {
  job->status = JobStatus::Running;
  job->started_at = backend_.now();
  job->nodes = std::move(allocation);
  prepare_params(*job);
  running_.push_back(job);
  ++tenant_epoch_;
  peak_running_ = std::max(peak_running_, running_.size());
  update_gauges();
  job->port.emplace(backend_, job->seq);
  try {
    if (auto* farm = std::get_if<FarmJob>(&job->spec)) {
      job->farm_engine = core::TaskFarm(farm->params)
                             .engine(*job->port, grid_, job->nodes,
                                     farm->tasks);
    } else {
      auto& pipe = std::get<PipelineJob>(job->spec);
      job->pipeline_engine = core::Pipeline(pipe.params)
                                 .engine(*job->port, grid_, job->nodes,
                                         pipe.spec, pipe.item_count);
    }
    job->engine().start(backend_.now());
    settle(*job);
  } catch (...) {
    fail(*job);
  }
}

void GridService::step(detail::JobState& job,
                       const core::Completion* completion) {
  if (job.done) return;
  try {
    if (completion != nullptr)
      job.engine().on(*completion);
    else
      job.engine().on_idle();
    settle(job);
  } catch (...) {
    fail(job);
  }
}

void GridService::settle(detail::JobState& job) {
  core::Engine& engine = job.engine();
  while (!engine.finished() && job.port->idle()) engine.on_idle();
  if (!engine.finished()) return;
  if (job.farm_engine)
    job.farm_report = job.farm_engine->take_report();
  else
    job.pipeline_report = job.pipeline_engine->take_report();
  job.farm_engine.reset();
  job.pipeline_engine.reset();
  job.done = true;
  ++unreaped_;
}

void GridService::fail(detail::JobState& job) {
  job.error = std::current_exception();
  try {
    std::rethrow_exception(job.error);
  } catch (const std::exception& e) {
    job.error_message = e.what();
  } catch (...) {
    job.error_message = "unknown exception";
  }
  job.farm_engine.reset();
  job.pipeline_engine.reset();
  job.done = true;
  ++unreaped_;
}

void GridService::reap() {
  if (unreaped_ == 0) return;
  unreaped_ = 0;
  for (std::size_t i = 0; i < running_.size();) {
    if (!running_[i]->done) {
      ++i;
      continue;
    }
    const StatePtr job = std::move(running_[i]);
    running_.erase(running_.begin() + i);
    ++tenant_epoch_;
    finalize(job);
  }
}

void GridService::finalize(const StatePtr& job) {
  job->finished_at = backend_.now();
  const bool ok =
      job->farm_report.has_value() || job->pipeline_report.has_value();
  job->status = ok ? JobStatus::Completed : JobStatus::Failed;
  if (ok)
    ++completed_;
  else
    ++failed_;
  if (params_.use_calibration_cache && job->farm_report.has_value()) {
    // A tenant that evicted a node for persistent degradation (or caught
    // a crash the membership scan hasn't seen yet) has just proven the
    // cached spm wrong — the next tenant must re-probe, not warm-start
    // from the measurement that got the node thrown out.
    for (const auto& ev : job->farm_report->trace.events()) {
      if (ev.kind == gridsim::TraceEventKind::NodeEvicted ||
          ev.kind == gridsim::TraceEventKind::NodeCrashDetected)
        cache_.invalidate(ev.node);
    }
  }
  if (telemetry_ != nullptr) {
    auto& m = telemetry_->metrics;
    m.inc(ok ? met_.completed : met_.failed);
    m.observe(met_.queue_wait_s,
              (job->started_at - job->submitted_at).value);
    if (!ok && telemetry_->flight != nullptr) {
      // Postmortem: a job died with an engine exception — freeze the
      // flight ring to disk while the evidence is still warm.
      telemetry_->flight->note(backend_.now().value, "engine", "job_failed",
                               NodeId::invalid(),
                               static_cast<double>(job->seq));
      telemetry_->flight->dump();
    }
    if (ok) {
      const Seconds finish = job->farm_report
                                 ? job->farm_report->makespan
                                 : job->pipeline_report->makespan;
      m.observe(met_.makespan_s, (finish - job->started_at).value);
    }
    if (job->own_telemetry != nullptr) {
      const std::string prefix = "job." + std::to_string(job->seq) + ".";
      m.import_scoped(prefix, job->own_telemetry->metrics.snapshot());
      telemetry_->spans.import_tree(
          "job", job->started_at.value, job->finished_at.value,
          static_cast<double>(job->seq),
          job->own_telemetry->spans.records());
    }
  }
  update_gauges();
}

void GridService::prepare_params(detail::JobState& job) {
  core::CalibrationParams* cal = nullptr;
  perfmon::MonitorDaemon::Params* mon = nullptr;
  obs::Telemetry** tel = nullptr;
  if (auto* farm = std::get_if<FarmJob>(&job.spec)) {
    cal = &farm->params.calibration;
    mon = &farm->params.monitor;
    tel = &farm->params.telemetry;
  } else {
    auto& pipe = std::get<PipelineJob>(job.spec);
    cal = &pipe.params.calibration;
    mon = &pipe.params.monitor;
    tel = &pipe.params.telemetry;
  }
  if (params_.use_calibration_cache) cal->spm_cache = &cache_;
  if (mon->sample_table == nullptr) mon->sample_table = &samples_;
  if (telemetry_ != nullptr && *tel == nullptr) {
    job.own_telemetry =
        std::make_unique<obs::Telemetry>(telemetry_->detail_enabled());
    // The flight ring is shared, not private: its whole point is one
    // postmortem stream across tenants.
    job.own_telemetry->flight = telemetry_->flight;
    *tel = job.own_telemetry.get();
  }
}

detail::JobState* GridService::find_running(std::uint64_t seq) const {
  for (const auto& job : running_)
    if (job->seq == seq) return job.get();
  return nullptr;
}

void GridService::update_gauges() {
  if (telemetry_ == nullptr) return;
  telemetry_->metrics.set(met_.running,
                          static_cast<double>(running_.size()));
  telemetry_->metrics.set(met_.queued, static_cast<double>(queue_.size()));
}

// ------------------------------------------------------------ inspection

std::vector<JobHandle> GridService::jobs() const {
  std::vector<JobHandle> handles;
  handles.reserve(all_jobs_.size());
  for (const auto& job : all_jobs_) handles.push_back(JobHandle(job));
  return handles;
}

}  // namespace grasp::svc
