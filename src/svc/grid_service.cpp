#include "svc/grid_service.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "obs/flight_recorder.hpp"
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
  std::unique_lock<std::mutex> lk(mu_);
  // Scheduled arrivals die with the service.
  for (const auto& [token, job] : pending_arrivals_)
    backend_.cancel_timer(token);
  pending_arrivals_.clear();
  // Queued jobs never ran; drop them (their handles stay Queued).
  queue_.clear();
  // Running engines observe a premature end-of-stream: sticky nullopt,
  // one turn each, until every thread has unwound.
  for (;;) {
    reap(lk);
    if (running_.empty()) break;
    detail::JobState* victim = nullptr;
    for (const auto& job : running_)
      if (job->blocked) {
        victim = job.get();
        break;
      }
    if (victim == nullptr) break;  // unreachable under the turn protocol
    victim->deliver_nullopt = true;
    hand_turn(lk, victim, nullptr);
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
  if (!(options.weight > 0.0))
    throw std::invalid_argument("GridService: job weight must be > 0");
  if (!(options.max_share > 0.0) || options.max_share > 1.0)
    throw std::invalid_argument("GridService: max_share must be in (0, 1]");

  std::unique_lock<std::mutex> lk(mu_);
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

  // A previous lone submit may be parked in the queue waiting for the
  // inline fast path; admit whatever actually fits before judging this
  // submit against the queue bound, so deferred-but-admissible jobs do
  // not count as backlog.
  if (!queue_.empty()) try_admit(lk);
  if (queue_.size() >= params_.max_queued_jobs) {
    job->status = JobStatus::Rejected;
    ++rejected_;
    if (telemetry_ != nullptr) telemetry_->metrics.inc(met_.rejected);
    return JobHandle(job);
  }
  job->submitted_at = backend_.now();
  queue_.push_back(job);
  update_gauges();
  // A lone job is left queued so wait() can take the inline fast path;
  // anything else is admitted eagerly (engine threads start and park on
  // their first wait_next).
  if (!inline_eligible()) try_admit(lk);
  return JobHandle(job);
}

// --------------------------------------------------------------- waiting

void GridService::wait(const JobHandle& handle) {
  if (!handle.valid())
    throw std::invalid_argument("GridService::wait: invalid handle");
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(mu_);
    const auto& state = *handle.state_;
    pump_until(lk, [&] { return terminal(state.status); });
    if (state.status == JobStatus::Failed) error = state.error;
  }
  if (error) std::rethrow_exception(error);
}

void GridService::wait_all() {
  std::unique_lock<std::mutex> lk(mu_);
  pump_until(lk, [&] {
    if (!pending_arrivals_.empty()) return false;
    for (const auto& job : all_jobs_)
      if (!terminal(job->status)) return false;
    return true;
  });
}

// -------------------------------------------------------- scheduler core

bool GridService::inline_eligible() const {
  return !params_.force_threaded && running_.empty() &&
         queue_.size() == 1 && pending_arrivals_.empty();
}

void GridService::pump_until(std::unique_lock<std::mutex>& lk,
                             const std::function<bool()>& done) {
  for (;;) {
    reap(lk);
    if (done()) return;
    if (inline_eligible()) {
      run_inline(lk);
      continue;
    }
    try_admit(lk);
    reap(lk);  // an admitted engine may run to completion on its first turn
    if (done()) return;
    if (running_.empty() && pending_arrivals_.empty()) {
      // Nothing can make progress: the predicate waits on a job that is
      // neither running nor able to arrive (e.g. wait() on a handle
      // whose service was saturated by max_concurrent_jobs = 0 jobs).
      // try_admit always admits onto an idle pool, so reaching here with
      // a pending predicate means the caller waits on a dropped job.
      return;
    }
    if (!pump_one(lk)) {
      // Backend has nothing in flight but live jobs remain — deliver the
      // end-of-stream verdict so their engines can unwind.
      bool progressed = false;
      for (const auto& job : running_) {
        if (!job->blocked) continue;
        job->deliver_nullopt = true;
        hand_turn(lk, job.get(), nullptr);
        progressed = true;
        break;
      }
      if (!progressed) return;
    }
  }
}

bool GridService::pump_one(std::unique_lock<std::mutex>& lk) {
  const auto completion = backend_.wait_next();
  if (!completion.has_value()) return false;
  detail::JobState* owner = route(*completion);
  if (owner != nullptr && owner->blocked) {
    // Everything reaped, nothing to admit: until a turn comes back here,
    // the service would only pump again, so the turn holders may.
    tenants_pump_ = queue_.empty();
    hand_turn(lk, owner, nullptr);
    tenants_pump_ = false;
  }
  return true;
}

detail::JobState* GridService::route(core::Completion completion) {
  const std::uint64_t seq = detail::seq_of(completion.token);
  if (seq == 0) {
    // Service arrival timer: the scheduled job materialises now.
    const auto it = pending_arrivals_.find(completion.token);
    if (it == pending_arrivals_.end()) return nullptr;  // cancelled
    const StatePtr job = it->second;
    pending_arrivals_.erase(it);
    if (queue_.size() >= params_.max_queued_jobs) {
      job->status = JobStatus::Rejected;
      ++rejected_;
      if (telemetry_ != nullptr) telemetry_->metrics.inc(met_.rejected);
      return nullptr;
    }
    job->submitted_at = backend_.now();
    queue_.push_back(job);
    update_gauges();
    return nullptr;
  }
  detail::JobState* owner = find_running(seq);
  if (owner == nullptr) return nullptr;  // tenant retired: drop the zombie
  completion.token = detail::to_local(completion.token);
  owner->inbox.push_back(completion);
  return owner;
}

void GridService::await_completion(std::unique_lock<std::mutex>& lk,
                                   detail::JobState& job) {
  detail::JobState* next = nullptr;  // nullptr: back to the service
  if (tenants_pump_) {
    // The service's next steps would be exactly these two calls.
    invalidate_departed(backend_.now());
    if (const auto completion = backend_.wait_next()) {
      next = route(*completion);
      if (next == &job) return;  // our own: keep the turn, no switch
    }
  }
  // Anything but another tenant's completion goes back to the service (an
  // arrival, a zombie, end-of-stream, or a turn granted outside pump_one):
  // it may have a job to reap, admit or unwind before it pumps again.
  job.blocked = true;
  hand_turn(lk, next, &job);
  job.blocked = false;
}

void GridService::try_admit(std::unique_lock<std::mutex>& lk) {
  const Seconds now = backend_.now();
  invalidate_departed(now);
  // Allocate only over live members: handing a crashed/departed node to a
  // tenant wastes its allocation (and an all-dead grant kills the engine
  // at t=0).  Churn-free grids take the identity path.
  const gridsim::ChurnTimeline* churn = grid_.churn();
  const std::vector<NodeId> live =
      churn != nullptr ? churn->members_at(pool_, now) : pool_;
  while (!queue_.empty()) {
    if (params_.max_concurrent_jobs != 0 &&
        running_.size() >= params_.max_concurrent_jobs)
      break;
    const StatePtr job = queue_.front();
    if (pool_.empty()) {
      // Let the engine issue its own empty-pool diagnosis.
      queue_.pop_front();
      start_job(lk, job, {});
      continue;
    }
    if (live.empty()) break;  // nobody alive: the head waits for a rejoin
    // min_nodes was clamped against the pool at submit; churn may have
    // shrunk live membership below it since, and with FIFO head-only
    // admission an unclamped head would starve the whole queue forever.
    if (job->min_nodes > live.size()) {
      job->min_nodes = live.size();
      ++min_nodes_reclamps_;
      if (telemetry_ != nullptr) telemetry_->metrics.inc(met_.reclamped);
    }
    std::unordered_set<NodeId> busy;
    for (const auto& r : running_)
      busy.insert(r->nodes.begin(), r->nodes.end());
    double running_weight = 0.0;
    for (const auto& r : running_) running_weight += r->weight;
    std::vector<NodeCapacity> free_nodes;
    double total_mops = 0.0;
    for (const NodeId node : live) {
      const double mops = capacity_mops(node);
      total_mops += mops;
      if (busy.count(node) == 0) free_nodes.push_back({node, mops});
    }
    std::vector<NodeId> allocation = pick_allocation(
        free_nodes, total_mops, running_weight,
        ShareRequest{job->weight, job->min_nodes, job->max_share});
    if (allocation.empty()) break;  // head-of-line waits: FIFO, no skipping
    queue_.pop_front();
    start_job(lk, job, std::move(allocation));
  }
  update_gauges();
}

void GridService::invalidate_departed(Seconds now) {
  if (!params_.use_calibration_cache) return;
  const gridsim::ChurnTimeline* churn = grid_.churn();
  if (churn == nullptr) return;
  for (const auto& ev : churn->events_between(churn_scan_, now)) {
    if (ev.kind == gridsim::ChurnEventKind::Crash ||
        ev.kind == gridsim::ChurnEventKind::Leave)
      cache_.invalidate(ev.node);
  }
  churn_scan_ = now;
}

double GridService::capacity_mops(NodeId node) const {
  if (params_.use_calibration_cache) {
    const auto cached = cache_.lookup(node, backend_.now());
    if (cached.has_value() && *cached > 0.0) return 1.0 / *cached;
  }
  return grid_.node(node).base_speed_mops();
}

void GridService::start_job(std::unique_lock<std::mutex>& lk,
                            const StatePtr& job,
                            std::vector<NodeId> allocation) {
  job->status = JobStatus::Running;
  job->started_at = backend_.now();
  job->nodes = std::move(allocation);
  prepare_params(*job);
  running_.push_back(job);
  peak_running_ = std::max(peak_running_, running_.size());
  update_gauges();
  job->thread = std::thread([this, job] { job_thread_main(job); });
  // First turn: the engine runs until it parks in wait_next (or exits).
  hand_turn(lk, job.get(), nullptr);
}

void GridService::run_inline(std::unique_lock<std::mutex>& lk) {
  const StatePtr job = queue_.front();
  queue_.pop_front();
  job->status = JobStatus::Running;
  job->started_at = backend_.now();
  job->nodes = pool_;  // lone tenant: the whole pool, order untouched
  prepare_params(*job);
  running_.push_back(job);
  peak_running_ = std::max(peak_running_, running_.size());
  update_gauges();
  lk.unlock();  // no other actor exists; the engine owns the backend
  try {
    execute(*job, backend_);
  } catch (...) {
    job->error = std::current_exception();
    try {
      std::rethrow_exception(job->error);
    } catch (const std::exception& e) {
      job->error_message = e.what();
    } catch (...) {
      job->error_message = "unknown exception";
    }
  }
  lk.lock();
  running_.erase(std::find(running_.begin(), running_.end(), job));
  finalize(job);
}

void GridService::hand_turn(std::unique_lock<std::mutex>& lk,
                            detail::JobState* to, detail::JobState* self) {
  turn_ = to != nullptr ? to->seq : 0;
  // Wake only the actor whose turn it is, after unlocking so it does not
  // block on the mutex this thread still holds.  Waits are predicate-
  // guarded, so a wakeup that lands before the target waits is not lost.
  lk.unlock();
  (to != nullptr ? to->cv : cv_).notify_one();
  lk.lock();
  const std::uint64_t me = self != nullptr ? self->seq : 0;
  (self != nullptr ? self->cv : cv_).wait(lk, [&] { return turn_ == me; });
}

void GridService::reap(std::unique_lock<std::mutex>& lk) {
  (void)lk;
  for (std::size_t i = 0; i < running_.size();) {
    const StatePtr job = running_[i];
    if (!job->thread_done) {
      ++i;
      continue;
    }
    // The thread's final act was releasing the mutex; join is prompt.
    if (job->thread.joinable()) job->thread.join();
    running_.erase(running_.begin() + i);
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

void GridService::job_thread_main(StatePtr job) {
  {
    // Do nothing — not even engine construction — before the first turn
    // grant: the admitting thread still owns the backend until then.
    std::unique_lock<std::mutex> lk(mu_);
    job->cv.wait(lk, [&] { return turn_ == job->seq; });
  }
  detail::JobBackend proxy(*this, *job);
  try {
    execute(*job, proxy);
  } catch (...) {
    job->error = std::current_exception();
    try {
      std::rethrow_exception(job->error);
    } catch (const std::exception& e) {
      job->error_message = e.what();
    } catch (...) {
      job->error_message = "unknown exception";
    }
  }
  // The service must reap this job before anything else runs, so the
  // last turn always goes back to it.  It joins this thread before it can
  // be destroyed, so notifying after the unlock is safe.
  std::unique_lock<std::mutex> lk(mu_);
  job->thread_done = true;
  turn_ = 0;
  lk.unlock();
  cv_.notify_one();
}

void GridService::execute(detail::JobState& job, core::Backend& backend) {
  if (auto* farm = std::get_if<FarmJob>(&job.spec)) {
    core::TaskFarm engine(farm->params);
    job.farm_report =
        engine.run_engine(backend, grid_, job.nodes, farm->tasks);
  } else {
    auto& pipe = std::get<PipelineJob>(job.spec);
    core::Pipeline engine(pipe.params);
    job.pipeline_report = engine.run_engine(backend, grid_, job.nodes,
                                            pipe.spec, pipe.item_count);
  }
}

void GridService::prepare_params(detail::JobState& job) {
  core::CalibrationParams* cal = nullptr;
  obs::Telemetry** tel = nullptr;
  if (auto* farm = std::get_if<FarmJob>(&job.spec)) {
    cal = &farm->params.calibration;
    tel = &farm->params.telemetry;
  } else {
    auto& pipe = std::get<PipelineJob>(job.spec);
    cal = &pipe.params.calibration;
    tel = &pipe.params.telemetry;
  }
  if (params_.use_calibration_cache) cal->spm_cache = &cache_;
  if (telemetry_ != nullptr && *tel == nullptr) {
    job.own_telemetry =
        std::make_unique<obs::Telemetry>(telemetry_->detail_enabled());
    // The flight ring is shared, not private: its whole point is one
    // postmortem stream across tenants (the mutex makes that safe).
    job.own_telemetry->flight = telemetry_->flight;
    *tel = job.own_telemetry.get();
  }
  job.telemetry = *tel;
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

std::size_t GridService::jobs_submitted() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return all_jobs_.size();
}

std::size_t GridService::jobs_completed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return completed_;
}

std::size_t GridService::jobs_failed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::size_t GridService::jobs_rejected() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return rejected_;
}

std::size_t GridService::jobs_running() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return running_.size();
}

std::size_t GridService::jobs_queued() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::size_t GridService::max_concurrent_observed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return peak_running_;
}

std::size_t GridService::min_nodes_reclamps() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return min_nodes_reclamps_;
}

std::vector<JobHandle> GridService::jobs() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobHandle> handles;
  handles.reserve(all_jobs_.size());
  for (const auto& job : all_jobs_) handles.push_back(JobHandle(job));
  return handles;
}

}  // namespace grasp::svc
