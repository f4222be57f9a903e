#include "core/task_farm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "obs/critical_path.hpp"
#include "obs/emit.hpp"
#include "obs/flight_recorder.hpp"
#include "resil/chunk_ledger.hpp"
#include "resil/membership.hpp"
#include "support/dynamic_bitset.hpp"
#include "support/flat_map.hpp"
#include "support/log.hpp"

namespace grasp::core {
namespace {

/// Ceiling on an adaptive chunk, in tasks.
constexpr std::size_t kMaxChunk = 64;
/// Algorithm 2 recalibrates at most this many times per run.
constexpr std::size_t kMaxRecalibrations = 16;
/// Tasks in a newcomer's fast-path calibration probe chunk.
constexpr std::size_t kProbeTasks = 1;
/// How long a farmerless farm waits for a promotable node (a live standby,
/// a rejoining dead one, or the farmer itself) before the run is lost.
constexpr Seconds kFailoverPatience{1e4};

/// One chunk travelling the input -> compute -> output chain, under one
/// token (its key in in_flight_ and the ledger) for all three operations.
struct Assignment {
  std::vector<workloads::TaskSpec> chunk;
  NodeId node;
  Seconds dispatched;
  /// When the compute phase began (the input transfer is excluded from
  /// mid-chunk speed estimates; zero until the Input phase completes).
  Seconds compute_started;
  enum class Phase { Input, Compute, Output } phase = Phase::Input;
  bool is_reissue = false;
  bool is_probe = false;   ///< newcomer fast-path calibration chunk
  bool duplicated = false;  ///< a reissue twin of this chunk exists
  obs::SpanId span = 0;    ///< dispatch→complete span (0 when disabled)
  /// Order of the last phase change, dispatch included: the order the
  /// checkpoint pass walks chunks in and the reissue scan's tie-break.
  std::uint64_t stamp = 0;
  Mops work() const {
    Mops total = Mops::zero();
    for (const auto& t : chunk) total += t.work;
    return total;
  }
};

// One TaskFarm run: the run's state and the handlers that step it.  The
// modes below are the run's phases; each handler runs until the engine
// needs its next completion.
class FarmRun final : public FarmEngine {
 public:
  FarmRun(FarmParams params, OpPort& backend, const gridsim::Grid& grid,
          std::vector<NodeId> pool, const workloads::TaskSet& tasks)
      : params_(std::move(params)),
        traits_(task_farm_traits()),
        backend_(backend),
        grid_(grid),
        churn_(grid.churn()),
        resil_on_(params_.resilience.enabled && churn_ != nullptr),
        ckpt_on_(resil_on_ &&
                 params_.resilience.checkpoint_period.value > 0.0),
        ckpt_every_(
            ckpt_on_
                ? std::max<std::size_t>(
                      1, static_cast<std::size_t>(std::llround(
                             params_.resilience.checkpoint_period.value /
                             params_.resilience.detector.heartbeat_period
                                 .value)))
                : 1),
        pool_(std::move(pool)),
        source_(tasks),
        tel_(params_.telemetry != nullptr ? *params_.telemetry
                                          : private_telemetry_),
        met_(tel_.metrics),
        obs_clock_(backend),
        ev_(obs_clock_, report_.trace, tel_.spans, tel_.flight, &met_, &rm_),
        flight_(tel_.flight),
        mean_work_(tasks.total_work().value /
                   static_cast<double>(tasks.size())) {}

  void start(Seconds now) override {
    if (pool_.empty()) throw std::invalid_argument("TaskFarm: empty pool");
    // The initial worker candidates: pool members present at t=0.  Absent
    // nodes (late joiners) enter through membership events.
    initial_members_ = churn_ ? churn_->members_at(pool_, now) : pool_;
    if (initial_members_.empty())
      throw std::invalid_argument(
          "TaskFarm: no pool member is present at t=0");
    const NodeId root =
        params_.root.is_valid() ? params_.root : initial_members_.front();
    clock_lease_.attach(tel_, obs_clock_);
    rm_ = resil::ResilienceMetrics::register_in(met_);
    base_snap_ = met_.snapshot();
    h_service_ =
        met_.histogram("farm.task_service_seconds", {1e-3, 2.0, 48});
    h_detect_ =
        met_.histogram("farm.detection_latency_seconds", {1e-3, 2.0, 48});
    h_promote_ =
        met_.histogram("farm.promotion_latency_seconds", {1e-3, 2.0, 48});
    h_ckpt_interval_ =
        met_.histogram("farm.checkpoint_interval_seconds", {1e-3, 2.0, 48});
    h_wave_ = met_.histogram("farm.dispatch_wave_size", {1.0, 2.0, 16});
    if (params_.slos.any()) watchdog_.emplace(params_.slos, tel_);
    run_started_ = now;
    if (flight_ != nullptr)
      flight_->note(now.value, "run", "farm_begin", root,
                    static_cast<double>(source_.total()));

    perfmon::MonitorDaemon::Params mon_params = params_.monitor;
    mon_params.root = root;
    monitor_.emplace(grid_, initial_members_, mon_params);
    monitor_->attach_metrics(&met_);

    cal_params_ = params_.calibration;
    if (!cal_params_.root.is_valid()) cal_params_.root = root;
    calibrator_.emplace(traits_, cal_params_);
    exec_monitor_.emplace(traits_, params_.threshold);

    elastic_.emplace(params_.resilience.pool);
    if (churn_ != nullptr) tracker_.emplace(*churn_, pool_);
    if (resil_on_) {
      detector_.emplace(params_.resilience.detector);
      for (const NodeId n : initial_members_) detector_->watch(n, now);
    }

    failover_on_ = resil_on_ && params_.resilience.failover.standby_count > 0;
    farmer_ = root;
    if (failover_on_)
      failover_.emplace(params_.resilience.failover,
                        params_.resilience.detector, root, now);

    // ---- Phase: calibration (Algorithm 1) -----------------------------
    begin_pass(initial_members_);
  }

  void on(const Completion& c) override {
    switch (mode_) {
      case Mode::Calibrating: on_calibrating(c); return;
      case Mode::Running: on_running(c); return;
      case Mode::Draining: on_draining(c); return;
      case Mode::Finished: break;
    }
    throw std::logic_error("TaskFarm: completion after the run finished");
  }

  void on_idle() override {
    switch (mode_) {
      case Mode::Calibrating:
        throw std::logic_error("Calibrator: backend drained unexpectedly");
      case Mode::Running:
        if (!source_.all_done())
          throw std::logic_error("TaskFarm: deadlock — tasks remain but "
                                 "nothing in flight (all workers lost?)");
        end_execution();
        return;
      case Mode::Draining: end_drain(); return;
      case Mode::Finished: return;
    }
  }

  [[nodiscard]] bool finished() const override {
    return mode_ == Mode::Finished;
  }
  [[nodiscard]] FarmReport take_report() override {
    return std::move(report_);
  }

 private:
  enum class Mode {
    Calibrating,  ///< an Algorithm 1 pass is open (initial or recalibration)
    Running,      ///< Algorithm 2 loop: dispatch, monitor, adapt
    Draining,     ///< waiting out live chunks (before a recalibration or
                  ///< at the end of the run)
    Finished,
  };

  // ---- Algorithm 1 as a sub-state -----------------------------------------

  void begin_pass(const std::vector<NodeId>& pool) {
    mode_ = Mode::Calibrating;
    pass_span_ = tel_.spans.begin("calibration");
    pass_.emplace(*calibrator_, backend_, pool, source_, &*monitor_, &ev_,
                  tokens_);
    if (pass_->done()) finish_pass();  // every node warm-started
  }

  void on_calibrating(const Completion& c) {
    monitor_->advance_to(backend_.now());
    // Deaths since the last completion: abandon their pending samples,
    // swallow the stalled ops and re-queue the real tasks they carried.
    if (execution_started_) consume_membership(backend_.now());
    for (const NodeId dead : std::exchange(newly_dead_, {})) {
      for (const auto& a : pass_->abandon(dead)) {
        dead_tokens_.insert(a.token);
        if (a.is_probe || !a.task.id.is_valid() ||
            source_.is_completed(a.task.id))
          continue;
        source_.push_front(a.task);
        ev_.emit(gridsim::TraceEventKind::ChunkRedispatched, dead, a.task.id,
                 0.0, "calibration");
      }
    }
    if (is_tick(c.token)) {
      // A tick delivered inside a (re)calibration still advances liveness:
      // the dead-node poll above picks up the verdict next completion.
      handle_tick();
    } else if (swallow_dead_token(c.token)) {
    } else if (in_flight_.find(c.token) != nullptr) {
      // A resilient recalibration overlaps execution: chunks keep flowing
      // through the farm's own state machine.
      deliver(c);
    } else {
      pass_->on(c);
    }
    if (pass_->done()) finish_pass();
  }

  void finish_pass() {
    const bool initial = !execution_started_;
    const CalibrationResult result = pass_->finish();
    pass_.reset();
    tel_.spans.end(pass_span_, static_cast<double>(result.tasks_consumed),
                   initial ? "initial" : "recalibration");
    report_.calibration_tasks += result.tasks_consumed;
    using Kind = gridsim::TraceEventKind;

    if (initial) {
      // Only the initial calibration warm-starts from the shared cache: a
      // recalibration is triggered by evidence that conditions moved, so it
      // re-measures every node — while still publishing its fresh samples
      // for the next tenant.
      if (cal_params_.spm_cache != nullptr && cal_params_.warm_start) {
        cal_params_.warm_start = false;
        calibrator_.emplace(traits_, cal_params_);
      }
      exec_monitor_->arm(result.baseline_spm, result.chosen, backend_.now());
      elastic_->reset(result.chosen);
      replicate_baseline();
      initial_baseline_spm_ = result.baseline_spm;
      for (const auto& s : result.ranking) node_spm_[s.node] = s.adjusted_spm;
      for (const NodeId n : pool_) node_chunk_[n] = params_.chunk_size;
      for (const NodeId n : pool_) set_busy(n, false);
      report_.final_baseline_spm = result.baseline_spm;
      execution_started_ = true;
      consume_membership(backend_.now());
      snapshot_and_recruit();  // initial standbys shadow from t=0 of execution
      arm_tick();
      loop_head();
      return;
    }

    note_if_all_done();
    // Empty: every probed node died; keep the set.
    if (!result.chosen.empty()) {
      for (const auto& s : result.ranking) node_spm_[s.node] = s.adjusted_spm;
      elastic_->reset(result.chosen);
      exec_monitor_->arm(result.baseline_spm, result.chosen, backend_.now());
      replicate_baseline();
      report_.final_baseline_spm = result.baseline_spm;
      for (const NodeId n : result.chosen) {
        if (std::find(workers_before_pass_.begin(), workers_before_pass_.end(),
                      n) == workers_before_pass_.end())
          ev_.emit(Kind::NodeSwapped, n, TaskId::invalid(), 1.0, "joined");
      }
    }
    loop_head();
  }

  // ---- Phase: execution (Algorithm 2 loop) --------------------------------

  void loop_head() {
    if (source_.all_done()) {
      end_execution();
      return;
    }
    mode_ = Mode::Running;
    dispatch_to_idle();
    maybe_reissue();
  }

  void on_running(const Completion& c) {
    monitor_->advance_to(backend_.now());
    if (c.is_timer) {
      if (is_tick(c.token))
        handle_tick();
      else if (is_handshake(c.token))
        finish_handshake();
      // A tick with no real work in flight and nobody left to dispatch to
      // is the dead end on_idle reports on tick-free runs; without this
      // check the farm would re-arm and spin forever.  A farmerless farm is
      // exempt: promotion (or the failover patience bound) decides its fate.
      if (!source_.all_done() && backend_.in_flight() == 0 &&
          elastic_->workers().empty() && elastic_->probationers().empty() &&
          !farmer_down()) {
        cancel_tick();
        throw std::logic_error("TaskFarm: deadlock — tasks remain but "
                               "nothing in flight (all workers lost?)");
      }
    } else {
      consume_membership(backend_.now());
      if (farmer_down()) {
        // The completion's destination is a corpse: the worker parks its
        // result and re-delivers it after the reconnect handshake.
        parked_.push_back(c);
      } else {
        process_completion(c);
        // The adaptation threshold is judged on work observations only;
        // ticks exist for liveness and must not perturb Algorithm 2's
        // cadence.
        if (params_.adaptation_enabled && !source_.all_done() &&
            recalibrations_ < kMaxRecalibrations) {
          const MonitorVerdict verdict = exec_monitor_->check(backend_.now());
          if (verdict != MonitorVerdict::None) pending_recalibration_ = true;
        }
      }
    }
    // A recalibration is a collective rooted at the farmer: opening it
    // against a dead coordinator fails at connection time, so the verdict
    // stays pending until the promoted farmer can host the pass.
    if (pending_recalibration_ &&
        !(failover_on_ &&
          (failover_->farmer_down() || !live_member_now(farmer_)))) {
      pending_recalibration_ = false;
      if (params_.adaptation_enabled && !source_.all_done() &&
          recalibrations_ < kMaxRecalibrations) {
        recalibrate();
        return;
      }
    }
    loop_head();
  }

  void recalibrate() {
    ++recalibrations_;
    ev_.emit(gridsim::TraceEventKind::RecalibrationTriggered, farmer_,
             TaskId::invalid(), static_cast<double>(recalibrations_));
    GRASP_LOG_INFO("farm") << "recalibration #" << recalibrations_ << " at t="
                           << backend_.now().value;
    // Resilient runs calibrate concurrently with execution (in-flight chunks
    // keep flowing through on_calibrating); the classic path drains first,
    // as the original Algorithm 2 loop did.
    if (!resil_on_)
      begin_drain(/*then_recalibrate=*/true);
    else
      begin_recalibration_pass();
  }

  void begin_recalibration_pass() {
    // Nothing left to schedule differently: back to the loop.
    if (source_.all_done() || source_.empty()) {
      loop_head();
      return;
    }
    workers_before_pass_ = elastic_->workers();
    std::vector<NodeId> recal_pool = farmer_live_view();
    if (resil_on_) {
      // Drop nodes that are provably gone right now (a calibration probe to
      // a dead node would fail at connection time, not stall forever).
      std::vector<NodeId> alive;
      for (const NodeId n : recal_pool)
        if (live_member_now(n)) alive.push_back(n);
        else declare_dead(n, "dispatch failed");
      recal_pool = std::move(alive);
    }
    if (recal_pool.empty()) {
      loop_head();
      return;
    }
    // Entries queued while no calibration was listening are stale: every
    // node they name is already outside recal_pool (or back in it after a
    // rejoin, in which case its fresh samples must not be abandoned).
    newly_dead_.clear();
    begin_pass(recal_pool);
  }

  // Drain live operations.  Chunks surrendered to crash recovery are
  // deliberately left pending: their zombie completions sit in the backend
  // until (long-)after the node's outage, and waiting for them would stall
  // the whole farm on a corpse.
  void begin_drain(bool then_recalibrate) {
    mode_ = Mode::Draining;
    drain_then_recalibrate_ = then_recalibrate;
    continue_drain();
  }

  void continue_drain() {
    if (backend_.in_flight() > dead_tokens_.size()) return;
    end_drain();
  }

  void on_draining(const Completion& c) {
    if (!all_done_seen_) monitor_->advance_to(backend_.now());
    if (c.is_timer) {
      if (is_tick(c.token)) handle_tick();
    } else {
      consume_membership(backend_.now());
      deliver(c);
    }
    continue_drain();
  }

  void end_drain() {
    if (drain_then_recalibrate_)
      begin_recalibration_pass();
    else
      finish_run();
  }

  void end_execution() {
    cancel_tick();  // liveness no longer matters once every task is done
    // A promotion the finished run no longer needs.
    if (handshake_token_ != 0) {
      backend_.cancel_timer(handshake_token_);
      handshake_token_ = 0;
    }
    if (!all_done_seen_) finish_time_ = backend_.now();
    report_.monitor_samples = monitor_->samples_taken();
    // Late duplicates / abandoned twins / zombies, off the clock.
    begin_drain(/*then_recalibrate=*/false);
  }

  void finish_run() {
    using Kind = gridsim::TraceEventKind;
    report_.makespan = finish_time_;
    report_.recalibrations = recalibrations_;
    report_.rounds = exec_monitor_->rounds_completed();
    report_.final_chosen = elastic_->workers();
    // Report fields that count one event kind are read off the trace.
    report_.chunk_resizes = report_.trace.count(Kind::ChunkResized);
    // Add the component-owned totals of this run to the registry (nothing
    // else writes these slots during a resilient run), then read the whole
    // resilience report back out as a snapshot delta: registry and report
    // cannot disagree.
    if (resil_on_) {
      met_.inc(rm_.admissions, elastic_->admissions());
      met_.inc(rm_.rejections, elastic_->rejections());
      met_.inc(rm_.evictions, elastic_->evictions());
      met_.inc(rm_.chunks_lost, ledger_.chunks_lost());
      met_.add(rm_.wasted_mops, ledger_.wasted_mops());
      met_.inc(rm_.checkpoints, ledger_.checkpoints());
      met_.inc(rm_.tasks_recovered, ledger_.tasks_recovered());
      met_.add(rm_.recovered_mops, ledger_.recovered_mops());
      met_.add(rm_.checkpoint_state_bytes, ledger_.checkpoint_state_bytes());
    }
    if (failover_on_) {
      met_.inc(rm_.failovers, failover_->failovers());
      met_.add(rm_.failover_latency_s, failover_->failover_latency_s());
      met_.inc(rm_.standby_recruits, failover_->recruits());
      met_.inc(rm_.replication_records, failover_->replication_records());
      met_.add(rm_.replication_bytes, failover_->replication_bytes());
      met_.add(rm_.handshake_cost_s, failover_->handshake_cost_s());
    }
    report_.resilience = resil::from_snapshot(met_.snapshot().diff(base_snap_));
    // Mirror the farm-level scalars so the registry carries the full run
    // summary too (absolute values of the latest run; RunSummary reads the
    // resilience block, dashboards read these).
    met_.set_counter(met_.counter("farm.tasks_completed"),
                     report_.tasks_completed);
    met_.set_counter(met_.counter("farm.calibration_tasks"),
                     report_.calibration_tasks);
    met_.set_counter(met_.counter("farm.recalibrations"),
                     report_.recalibrations);
    met_.set_counter(met_.counter("farm.reissues"), report_.reissues);
    met_.set_counter(met_.counter("farm.chunk_resizes"), report_.chunk_resizes);
    met_.set_counter(met_.counter("farm.monitor_samples"),
                     report_.monitor_samples);
    met_.set_counter(met_.counter("farm.rounds"), report_.rounds);
    met_.set(met_.gauge("farm.makespan_s"), report_.makespan.value);
    // Post-run causal diagnosis: blame the makespan on its causes and
    // publish the top-level fractions as obs.blame.* gauges next to the
    // farm scalars.  Needs spans, so it follows the detail tier.
    if (met_.enabled() && !tel_.spans.records().empty())
      obs::publish_blame(
          obs::analyze_blame(tel_.spans.records(), finish_time_.value), met_);
    if (flight_ != nullptr)
      flight_->note(finish_time_.value, "run", "farm_end", farmer_,
                    static_cast<double>(report_.tasks_completed));
    clock_lease_.release();
    mode_ = Mode::Finished;
  }

  // ---- The run's machinery ------------------------------------------------

  [[nodiscard]] bool is_handshake(OpToken token) const {
    return handshake_token_ != 0 && token == handshake_token_;
  }
  [[nodiscard]] bool is_tick(OpToken token) const {
    return tick_token_ != 0 && token == tick_token_;
  }
  [[nodiscard]] bool farmer_down() const {
    return failover_on_ && failover_->farmer_down();
  }
  [[nodiscard]] bool live_member_now(NodeId n) {
    return churn_ != nullptr && tracker_->live().is_member(n, backend_.now());
  }

  void replicate_baseline() {
    if (!failover_on_) return;
    failover_->log().append(
        {resil::ReplicaRecordKind::Baseline, 0, farmer_, 0, 0, 0.0, {}});
    // A calibration ends in a pool-wide collective; its dissemination
    // doubles as a synchronous log flush, so a rollback never spans one
    // (sample results live distributed at the workers that produced them
    // and are re-delivered on the reconnect handshake).
    if (live_member_now(farmer_))
      failover_->account_flush(
          failover_->log().flush(tracker_->live(), backend_.now()));
  }

  bool swallow_dead_token(OpToken token) {
    if (dead_tokens_.erase(token) == 0) return false;
    if (evicted_tokens_.erase(token) == 0) met_.inc(rm_.zombie_completions);
    return true;
  }

  // Wrap the caller's per-task payload (if any) around a chunk: the threaded
  // backend runs it on the worker thread, the simulator ignores it.
  std::function<void()> make_chunk_body(
      const std::vector<workloads::TaskSpec>& chunk) const {
    if (!params_.calibration.task_body) return {};
    return [fn = params_.calibration.task_body, chunk] {
      for (const auto& t : chunk) fn(t);
    };
  }

  double spm_estimate(NodeId n) const {
    const double estimate = node_spm_.at_or_default(n);
    if (estimate > 0.0) return estimate;
    return std::max(1e-9, initial_baseline_spm_);
  }

  std::size_t chunk_for(NodeId n) {
    if (!params_.adaptive_chunking) return params_.chunk_size;
    const double per_task = spm_estimate(n) * mean_work_;
    if (per_task <= 0.0) return params_.chunk_size;
    const auto ideal = static_cast<std::size_t>(
        std::llround(params_.target_chunk_seconds / per_task));
    const std::size_t clamped = std::clamp<std::size_t>(ideal, 1, kMaxChunk);
    if (clamped != node_chunk_[n]) {
      node_chunk_[n] = clamped;
      ev_.emit(gridsim::TraceEventKind::ChunkResized, n, TaskId::invalid(),
               static_cast<double>(clamped), "chunk");
    }
    return clamped;
  }

  void queue_chunk(NodeId node, std::vector<workloads::TaskSpec> chunk,
                   bool is_reissue, bool is_probe = false) {
    Assignment a;
    a.chunk = std::move(chunk);
    a.node = node;
    a.dispatched = backend_.now();
    a.is_reissue = is_reissue;
    a.is_probe = is_probe;
    a.stamp = next_stamp_++;
    a.span = tel_.spans.begin("chunk", 0, node,
                              a.chunk.empty() ? TaskId::invalid()
                                              : a.chunk.front().id,
                              a.work().value);
    Bytes input = Bytes::zero();
    for (const auto& t : a.chunk) input += t.input;
    const OpToken token = tokens_.alloc();
    dispatch_wave_.push_back(OpRequest::transfer(token, farmer_, node, input));
    for (const auto& t : a.chunk)
      ev_.emit(is_reissue ? gridsim::TraceEventKind::TaskReissued
                          : gridsim::TraceEventKind::TaskDispatched,
               node, t.id, t.work.value);
    set_busy(node, true);
    if (resil_on_)
      ledger_.record(token, {node, a.chunk, a.dispatched, a.work()});
    if (failover_on_)
      failover_->log().append(
          {resil::ReplicaRecordKind::Assign, token, node, 0, 0, 0.0, {}});
    in_flight_.emplace(token, std::move(a));
  }

  void flush_dispatches() {
    if (dispatch_wave_.empty()) return;
    met_.observe(h_wave_, static_cast<double>(dispatch_wave_.size()));
    backend_.submit_batch(std::move(dispatch_wave_));
    dispatch_wave_.clear();
  }

  // The one writer of busy_: keeps the idle bit of a worker in step.
  void set_busy(NodeId n, bool busy) {
    busy_[n] = busy;
    if (idle_revision_ != elastic_->revision()) return;  // sync_idle rebuilds
    const std::size_t p = member_pos_.at_or_default(n);
    if (p == DynamicBitset::npos) return;  // not a worker
    if (busy)
      idle_.reset(p);
    else
      idle_.set(p);
  }

  // Rebuild the worker positions and idle bits after the pool changed.
  void sync_idle() {
    if (idle_revision_ == elastic_->revision()) return;
    idle_revision_ = elastic_->revision();
    const std::vector<NodeId>& workers = elastic_->workers();
    member_pos_.clear();
    idle_.assign(workers.size(), false);
    for (std::size_t p = 0; p < workers.size(); ++p) {
      const NodeId n = workers[p];
      // A repeated worker keeps its first position; the repeat is never
      // idle, so it is never picked twice.
      if (member_pos_.at_or_default(n) != DynamicBitset::npos) continue;
      member_pos_[n] = p;
      if (busy_.at_or_default(n) == 0) idle_.set(p);
    }
  }

  // Return the unfinished tasks of a lost chunk to the front of the queue
  // (order-preserving), tracing each re-dispatch.
  void requeue_pending(const std::vector<workloads::TaskSpec>& chunk,
                       NodeId from) {
    for (auto it = chunk.rbegin(); it != chunk.rend(); ++it) {
      if (source_.is_completed(it->id)) continue;
      source_.push_front(*it);
      ev_.emit(gridsim::TraceEventKind::ChunkRedispatched, from, it->id);
    }
  }

  // Salvage the checkpointed prefix of a surrendered chunk: those tasks'
  // partial results already sit at the farmer, so they are completed here
  // rather than re-dispatched (the suffix-only re-dispatch rule).  Tasks a
  // winning twin finished first stay with the twin — mark_completed dedupes.
  void recover_checkpointed(const resil::ChunkLedger::Entry& entry) {
    using Kind = gridsim::TraceEventKind;
    const std::size_t upto = std::min(entry.checkpointed, entry.tasks.size());
    std::vector<workloads::TaskSpec> marked;
    for (std::size_t i = 0; i < upto; ++i) {
      const auto& t = entry.tasks[i];
      if (!t.id.is_valid() || !source_.mark_completed(t.id)) continue;
      ++report_.tasks_completed;
      if (failover_on_) marked.push_back(t);
      ev_.emit(Kind::TaskRecovered, entry.node, t.id, t.work.value,
               "checkpoint");
      ev_.emit(Kind::TaskCompleted, entry.node, t.id, 0.0, "recovered");
    }
    if (!marked.empty()) {
      // Recovered results are freshly authoritative farmer state: the next
      // flush must replicate them like any other accepted completion.
      double result_bytes = 0.0;
      for (const auto& t : marked) result_bytes += t.output.value;
      failover_->log().append({resil::ReplicaRecordKind::Complete, 0,
                               entry.node, 0, 0, result_bytes,
                               std::move(marked)});
    }
    note_if_all_done();
  }

  // The first time every task is done fixes the makespan.
  void note_if_all_done() {
    if (!all_done_seen_ && source_.all_done()) {
      all_done_seen_ = true;
      finish_time_ = backend_.now();
    }
  }

  // Current live view the farmer holds: every node it still watches.
  std::vector<NodeId> farmer_live_view() const {
    if (!resil_on_) return initial_members_;
    return detector_->watched();
  }

  // Declare `node` dead: stop watching it, shrink the worker set, and
  // surrender its in-flight chunks to the queue — exactly once, via the
  // ledger.  `why` lands in the trace for post-hoc timelines.
  void declare_dead(NodeId node, const char* why) {
    if (!resil_on_ || !detector_->watching(node)) return;
    detector_->unwatch(node);
    elastic_->remove(node);
    set_busy(node, false);
    newly_dead_.push_back(node);
    if (failover_on_) {
      failover_->log().append(
          {resil::ReplicaRecordKind::Membership, 0, node, 0, 0, 0.0, {}});
      if (failover_->is_standby(node)) failover_->standby_lost(node);
    }
    // Detection latency: now minus the actual crash instant (the latest
    // Crash event for this node).  Rare path, so the timeline scan is
    // affordable.  Computed when either consumer wants it: the detail-tier
    // histogram, or a detection-latency SLO (which must fire even with the
    // detail tier off).
    if (met_.enabled() ||
        (watchdog_ && watchdog_->rules().detection_latency_s > 0.0)) {
      const auto& events = churn_->events();
      for (auto it = events.rbegin(); it != events.rend(); ++it) {
        if (it->at > backend_.now()) continue;
        if (it->node != node || it->kind != gridsim::ChurnEventKind::Crash)
          continue;
        const double latency = (backend_.now() - it->at).value;
        met_.observe(h_detect_, latency);
        if (watchdog_)
          watchdog_->check_detection(node, backend_.now().value, latency);
        break;
      }
    }
    ev_.emit(gridsim::TraceEventKind::NodeCrashDetected, node,
             TaskId::invalid(), 0.0, why);
    GRASP_LOG_INFO("farm") << "node " << node.value << " declared dead ("
                           << why << ") at t=" << backend_.now().value;
    const auto already_done = [&](TaskId id) {
      return source_.is_completed(id);
    };
    for (auto& [token, entry] : ledger_.fail_node(node, already_done)) {
      if (auto [found, lost] = in_flight_.take(token); found) {
        dead_tokens_.insert(token);
        tel_.spans.end(lost.span, 0.0, "lost");
        if (flight_ != nullptr)
          flight_->note(backend_.now().value, "chunk", "lost", node,
                        lost.work().value);
      }
      recover_checkpointed(entry);
      requeue_pending(entry.tasks, node);
    }
    // The crash may have taken reissue twins with it: clear the duplicated
    // marks so the surviving originals are eligible for straggler/tail
    // relief again.  Over-clearing is safe — first completion wins.
    for (auto& [token, a] : in_flight_) {
      (void)token;
      a.duplicated = false;
    }
    monitor_->rewatch(farmer_live_view());
    exec_monitor_->arm(exec_monitor_->baseline_spm(), elastic_->workers(),
                       backend_.now());
    // A dead coordinator cannot usefully re-run Algorithm 1 — and letting
    // it try would stall the promotion behind a calibration rooted at a
    // corpse.  The promotion path schedules its own recalibration.
    if (params_.resilience.recalibrate_on_crash &&
        !(failover_on_ && node == farmer_))
      pending_recalibration_ = true;
  }

  // Consume membership events and heartbeat silence up to `now`.
  void consume_membership(Seconds now) {
    using Kind = gridsim::TraceEventKind;
    if (!resil_on_) return;
    detector_->advance(now, tracker_->live());
    for (const auto& e : tracker_->poll(now)) {
      switch (e.kind) {
        case gridsim::ChurnEventKind::Crash:
          // The farmer cannot see a crash directly; the detector (silence)
          // or a zombie completion reveals it.
          break;
        case gridsim::ChurnEventKind::Leave:
          if (detector_->watching(e.node)) {
            detector_->unwatch(e.node);
            elastic_->remove(e.node);
            if (failover_on_) {
              failover_->log().append({resil::ReplicaRecordKind::Membership, 0,
                                       e.node, 0, 0, 0.0, {}});
              if (failover_->is_standby(e.node))
                failover_->standby_lost(e.node);
              if (e.node == farmer_ && failover_->farmer_leaving(now)) {
                // A graceful departure ships its unflushed suffix on the
                // way out: the successor starts from complete state and
                // nothing rolls back.
                failover_->account_flush(
                    failover_->log().flush(tracker_->live(), now));
                if (failover_span_ == 0)
                  failover_span_ = tel_.spans.begin("failover", 0, e.node);
                ev_.emit(Kind::FarmerCrashDetected, e.node, TaskId::invalid(),
                         0.0, "announced departure");
              }
            }
            // A calibration running right now must abandon this node's
            // samples (it can no longer be chosen); execution-phase chunks
            // still drain gracefully.
            newly_dead_.push_back(e.node);
            ev_.emit(Kind::NodeLeftPool, e.node, TaskId::invalid(), 0.0,
                     "announced");
            monitor_->rewatch(farmer_live_view());
            exec_monitor_->arm(exec_monitor_->baseline_spm(),
                               elastic_->workers(), now);
          }
          break;
        case gridsim::ChurnEventKind::Join:
        case gridsim::ChurnEventKind::Rejoin: {
          ev_.emit(Kind::NodeJoinedPool, e.node, TaskId::invalid(), 0.0,
                   e.kind == gridsim::ChurnEventKind::Rejoin ? "rejoin"
                                                             : "join");
          detector_->watch(e.node, now);
          if (failover_on_)
            failover_->log().append({resil::ReplicaRecordKind::Membership, 0,
                                     e.node, 0, 0, 0.0, {}});
          // Clear a stale busy flag only when nothing is actually in flight
          // there: a node rejoining before its stalled chunk surfaced as a
          // zombie is still occupied, and dispatching a second chunk would
          // break the one-chunk-per-worker discipline.
          bool occupied = false;
          for (const auto& [token, a] : in_flight_) {
            (void)token;
            if (a.node == e.node) occupied = true;
          }
          if (!occupied) set_busy(e.node, false);
          if (params_.resilience.elastic_join)
            elastic_->begin_probation(e.node);
          monitor_->rewatch(farmer_live_view());
          break;
        }
      }
    }
    for (const NodeId n : detector_->suspects(now))
      declare_dead(n, "heartbeat timeout");
  }

  // Checkpoint pass: absorb the progress reports workers piggybacked on
  // their last heartbeats.  Progress is what the backend surfaces for the
  // chunk's compute op; the shipped high-water mark is the longest task
  // prefix whose work fits in the elapsed fraction.  With eviction enabled
  // the same reports double as execution observations, so a chunk crawling
  // far behind the baseline is abandoned mid-flight: the node is evicted,
  // the checkpointed prefix salvaged, and only the suffix re-dispatched.
  void take_checkpoints() {
    if (!ckpt_on_) return;
    const obs::SpanId pass_span = tel_.spans.begin("checkpoint_pass");
    std::vector<OpToken> abandoned;
    // The pass stages every accepted progress report and applies them to
    // the ledger in one checkpoint_batch call at the end.
    std::vector<resil::ChunkLedger::CheckpointUpdate> updates;
    // Chunks in compute, in order of their last phase change.
    std::vector<const FlatMap<OpToken, Assignment>::Item*> computing;
    for (const auto& item : in_flight_)
      if (item.value.phase == Assignment::Phase::Compute)
        computing.push_back(&item);
    std::sort(computing.begin(), computing.end(),
              [](const auto* x, const auto* y) {
                return x->value.stamp < y->value.stamp;
              });
    for (const auto* item : computing) {
      const OpToken token = item->key;
      const Assignment& a = item->value;
      // A worker that crashed since this chunk was dispatched ships nothing
      // more for it: the crash destroyed the chunk's in-memory state, so
      // even after a rejoin there is no fresher partial result to report —
      // whatever was checkpointed before the crash stays valid (it already
      // reached the farmer), and the completion, when it surfaces, is a
      // zombie.  Announced leavers keep reporting: they drain gracefully.
      if (tracker_->live().crashed_during(a.node, a.dispatched,
                                          backend_.now()))
        continue;
      const double frac = backend_.compute_progress(token);
      if (frac <= 0.0) continue;
      const double budget = frac * a.work().value;
      std::size_t done = 0;
      double acc = 0.0;
      for (const auto& t : a.chunk) {
        acc += t.work.value;
        if (acc > budget && frac < 1.0) break;
        ++done;
      }
      const std::size_t prev = ledger_.checkpointed(token);
      if (done > prev && ledger_.tracks(token)) {
        // The newly checkpointed tasks' partial results ship to the farmer;
        // their volume is what checkpoint shipping costs.  (The virtual-time
        // farm accounts the bytes without charging the simulated clock.)
        double state_bytes = 0.0;
        for (std::size_t i = prev; i < done && i < a.chunk.size(); ++i)
          state_bytes += a.chunk[i].output.value;
        updates.push_back({token, done, state_bytes});
        if (failover_on_)
          failover_->log().append({resil::ReplicaRecordKind::Checkpoint, token,
                                   a.node, prev, done, state_bytes, {}});
        ev_.emit(gridsim::TraceEventKind::ChunkCheckpointed, a.node,
                 TaskId::invalid(), static_cast<double>(done));
      }
      // Mid-chunk degradation check (only meaningful once some progress
      // exists to estimate speed from).  Measured from the compute phase's
      // start so the input transfer does not inflate the estimate early in
      // the chunk.  Reissue twins are exempt: their originals already
      // cover the work, first completion wins.
      if (!a.is_reissue && elastic_->contains(a.node) &&
          params_.resilience.pool.evict_ratio > 0.0) {
        const double est_spm = (backend_.now() - a.compute_started).value /
                               std::max(1e-9, budget);
        if (elastic_->observe(a.node, est_spm, exec_monitor_->baseline_spm()))
          abandoned.push_back(token);
      }
    }
    // Apply the pass's progress reports before processing evictions, so an
    // evicted chunk salvages the prefix this very pass just checkpointed.
    ledger_.checkpoint_batch(updates);
    if (!updates.empty()) {
      if (any_ckpt_yet_)
        met_.observe(h_ckpt_interval_, (backend_.now() - last_ckpt_at_).value);
      any_ckpt_yet_ = true;
      last_ckpt_at_ = backend_.now();
    }
    const auto already_done = [&](TaskId id) {
      return source_.is_completed(id);
    };
    for (const OpToken token : abandoned) {
      auto [found, a] = in_flight_.take(token);
      if (!found) continue;
      // Its straggling completion is discarded — but not as a zombie: the
      // holder is alive.
      dead_tokens_.insert(token);
      evicted_tokens_.insert(token);
      tel_.spans.end(a.span, 0.0, "evicted");
      ev_.emit(gridsim::TraceEventKind::NodeEvicted, a.node, TaskId::invalid(),
               0.0, "mid-chunk degradation");
      GRASP_LOG_INFO("farm") << "node " << a.node.value
                             << " evicted mid-chunk at t="
                             << backend_.now().value;
      const auto entry = ledger_.invalidate(token, already_done);
      if (entry) recover_checkpointed(*entry);
      requeue_pending(a.chunk, a.node);
      set_busy(a.node, false);
      exec_monitor_->arm(exec_monitor_->baseline_spm(), elastic_->workers(),
                         backend_.now());
    }
    tel_.spans.end(pass_span, static_cast<double>(updates.size()),
                   updates.empty() ? "idle" : "progress");
  }

  // ---- Farmer failover machinery (replicated-farmer runs) -----------------

  // Undo one unflushed log record at promotion time: the state it describes
  // died with the old farmer before any standby received it.
  void undo_record(const resil::ReplicaLog::Record& r) {
    using Kind = gridsim::TraceEventKind;
    switch (r.kind) {
      case resil::ReplicaRecordKind::Checkpoint:
        // The partial state above prev_mark only ever reached the corpse.
        ledger_.revert_checkpoint(r.token, r.prev_mark);
        break;
      case resil::ReplicaRecordKind::Complete:
        // Accepted results that were never replicated: retract the marks
        // and re-queue the tasks (front, reverse order, like any other
        // loss path) so they run again under the new farmer.
        for (auto it = r.tasks.rbegin(); it != r.tasks.rend(); ++it) {
          if (!it->id.is_valid() || !source_.unmark_completed(it->id))
            continue;
          --report_.tasks_completed;
          source_.push_front(*it);
          ev_.emit(Kind::TaskResultLost, r.node, it->id, it->work.value);
          ev_.emit(Kind::ChunkRedispatched, r.node, it->id, 0.0, "failover");
        }
        if (all_done_seen_ && !source_.all_done()) all_done_seen_ = false;
        break;
      case resil::ReplicaRecordKind::Assign:
      case resil::ReplicaRecordKind::Membership:
      case resil::ReplicaRecordKind::Baseline:
        // Re-learned on the reconnect handshake: live workers re-register
        // their in-flight chunks and the broadcast-heartbeat mirror
        // re-derives membership, so these records need no rollback.
        break;
    }
  }

  // Keep the standby set at strength while the farmer is alive: the
  // lowest-id live members outside the coordinator role receive a state
  // snapshot and start applying the log from its current end.
  void snapshot_and_recruit() {
    if (!failover_on_ || failover_->farmer_down()) return;
    // Standbys that died during a past outage were kept registered so a
    // rejoin could resume; with the farmer alive again they are dead
    // weight and make room for live recruits.
    failover_->prune_dead_standbys(tracker_->live(), backend_.now());
    while (failover_->standby_deficit() > 0) {
      NodeId pick = NodeId::invalid();
      for (const NodeId n : detector_->watched()) {
        if (n == farmer_ || failover_->is_standby(n) || !live_member_now(n))
          continue;
        pick = n;
        break;
      }
      if (!pick.is_valid()) return;  // nobody to recruit right now
      const double snapshot_bytes = 256.0 + ledger_.snapshot_bytes();
      failover_->recruit(pick, snapshot_bytes);
      ev_.emit(gridsim::TraceEventKind::StandbyRecruited, pick,
               TaskId::invalid(), snapshot_bytes);
      GRASP_LOG_INFO("farm") << "standby " << pick.value
                             << " recruited at t=" << backend_.now().value;
    }
  }

  void arm_tick() {
    if (!resil_on_) return;
    tick_token_ = tokens_.alloc();
    // Align ticks to the heartbeat grid: beats are credited at absolute
    // multiples of the period, so suspicion state only changes there — a
    // grid-aligned tick evaluates each beat boundary as soon as it passes,
    // keeping detection within timeout + heartbeat_period of the crash.
    const double period =
        1.0 * params_.resilience.detector.heartbeat_period.value;
    const double into = std::fmod(backend_.now().value, period);
    backend_.submit_timer(tick_token_, Seconds{period - into});
  }

  void cancel_tick() {
    if (tick_token_ != 0) {
      backend_.cancel_timer(tick_token_);
      tick_token_ = 0;
    }
  }

  // Per-tick failover pass.
  void failover_step() {
    if (!failover_on_) return;
    const Seconds now = backend_.now();
    gridsim::LivenessCursor& live = tracker_->live();
    if (!failover_->farmer_down()) {
      if (!pass_ && live_member_now(farmer_)) {
        // Healthy farmer: ship the unflushed log suffix to every live
        // standby, piggybacked on this tick's heartbeat round, and keep
        // the standby set at strength.
        failover_->account_flush(failover_->log().flush(live, now));
        snapshot_and_recruit();
      }
      // Standby side: watch the farmer's own beats for silence.
      if (!failover_->advance(now, live)) return;
      if (failover_span_ == 0)
        failover_span_ = tel_.spans.begin("failover", 0, farmer_);
      ev_.emit(gridsim::TraceEventKind::FarmerCrashDetected, farmer_,
               TaskId::invalid(), 0.0, "heartbeat timeout");
      GRASP_LOG_INFO("farm") << "farmer " << farmer_.value
                             << " declared dead at t=" << now.value;
      declare_dead(farmer_, "farmer silent");  // its worker-side chunks
    }
    // Promotion waits out an in-flight Algorithm 1 pass: the calibration
    // collective must land (or abandon the corpse) before the coordinator
    // role moves.  Detection above is never deferred, so the crash is
    // still declared within timeout + heartbeat_period.
    if (pass_) return;
    if (handshake_token_ != 0) return;  // reconnect handshake under way
    if (const auto s = failover_->successor(live, now)) {
      // Deterministic promotion: lowest-id live standby wins.  Its
      // watermark divides history — roll back everything it never
      // received before it starts acting on the replicated state.
      promotion_waited_ = (now - failover_->down_since()).value > 1e-9;
      pending_is_recovery_ = false;
      pending_farmer_ = *s;
      tel_.spans.instant("rollback", failover_span_, *s);
      failover_->log().rollback_to(
          failover_->log().watermark(*s),
          [this](const resil::ReplicaLog::Record& r) { undo_record(r); });
      handshake_span_ = tel_.spans.begin("handshake", failover_span_, *s);
      handshake_token_ = tokens_.alloc();
      backend_.submit_timer(handshake_token_, failover_->handshake_cost());
    } else if (live_member_now(farmer_)) {
      // No standby reachable but the old farmer rejoined: it resumes with
      // its own intact state (nothing to roll back), paying the same
      // reconnect handshake.
      promotion_waited_ = true;
      pending_is_recovery_ = true;
      pending_farmer_ = farmer_;
      handshake_span_ = tel_.spans.begin("handshake", failover_span_, farmer_);
      handshake_token_ = tokens_.alloc();
      backend_.submit_timer(handshake_token_, failover_->handshake_cost());
    } else if ((now - failover_->down_since()) > kFailoverPatience) {
      cancel_tick();
      throw std::runtime_error(
          "TaskFarm: farmer lost with no standby, rejoin or recruit within "
          "failover patience");
    }
  }

  void handle_tick() {
    tick_token_ = 0;
    consume_membership(backend_.now());
    // SLO probes ride the liveness tick: same cadence as the failure
    // detector, no timers of their own.  (Ticks only exist on resilient
    // runs, so `detector_` is always engaged here.)
    if (watchdog_) {
      const double now_s = backend_.now().value;
      if (watchdog_->rules().heartbeat_staleness_s > 0.0)
        for (const NodeId n : detector_->watched())
          watchdog_->check_heartbeat(n, now_s,
                                     detector_->last_heartbeat(n).value);
      watchdog_->check_wasted_rate(now_s, ledger_.wasted_mops(),
                                   now_s - run_started_.value);
      if (pass_)
        watchdog_->check_calibration_stall(now_s, pass_->started().value);
    }
    // Every ckpt_every_-th beat carries the piggybacked progress reports —
    // unless the farm is farmerless, in which case nobody collects them.
    if (ckpt_on_ && ++ticks_seen_ % ckpt_every_ == 0 && !farmer_down())
      take_checkpoints();
    failover_step();
    arm_tick();
  }

  void dispatch_to_idle() {
    // A farmerless farm dispatches nothing: work resumes when the reconnect
    // handshake of the promoted coordinator closes.
    if (failover_on_ && (failover_->farmer_down() || handshake_token_ != 0))
      return;
    if (source_.empty()) {
      flush_dispatches();
      return;
    }
    // Idle workers in worker order, one bit search per pick.  Everything
    // before `from` has been visited: a dispatch clears the worker's bit,
    // and a death shifts the later workers down onto its position.  A
    // worker the farmer cannot declare dead (it no longer watches it) keeps
    // its bit and is stepped over, as a walk over workers() would.
    std::size_t from = 0;
    while (!source_.empty()) {
      sync_idle();
      const std::size_t p = idle_.find_next(from);
      if (p == DynamicBitset::npos) break;
      const NodeId n = elastic_->workers()[p];
      // Dispatch-time liveness check: opening the connection to a dead node
      // fails fast, so the farmer learns of the crash here even before the
      // heartbeat timeout.
      if (resil_on_ && !live_member_now(n)) {
        const std::size_t before = elastic_->revision();
        declare_dead(n, "dispatch failed");
        from = elastic_->revision() == before ? p + 1 : p;
        continue;
      }
      const std::size_t want = chunk_for(n);
      std::vector<workloads::TaskSpec> chunk;
      while (chunk.size() < want && !source_.empty())
        chunk.push_back(source_.pop());
      queue_chunk(n, std::move(chunk), false);
      from = p + 1;
    }
    // Fast-path calibration probes for newcomers in probation (a copy:
    // declare_dead edits the list).
    if (resil_on_ && !elastic_->probationers().empty()) {
      const std::vector<NodeId> probationers = elastic_->probationers();
      for (const NodeId n : probationers) {
        if (source_.empty()) break;
        if (busy_.at_or_default(n)) continue;
        if (!live_member_now(n)) {
          declare_dead(n, "dispatch failed");
          continue;
        }
        std::vector<workloads::TaskSpec> chunk;
        while (chunk.size() < kProbeTasks && !source_.empty())
          chunk.push_back(source_.pop());
        if (!chunk.empty())
          queue_chunk(n, std::move(chunk), false, /*is_probe=*/true);
      }
    }
    // One batched submission for the whole round's transfers.
    flush_dispatches();
  }

  // Straggler scan: when the queue is dry, duplicate late chunks onto idle
  // chosen workers (first completion wins).
  void maybe_reissue() {
    if (failover_on_ && (failover_->farmer_down() || handshake_token_ != 0))
      return;
    if (!params_.reissue_stragglers || !source_.empty()) return;
    if ((traits_.actions & kActionReissueTask) == 0) return;
    // Idle chosen workers, fastest first.
    sync_idle();
    std::vector<NodeId> idle;
    for (std::size_t p = idle_.find_first(); p != DynamicBitset::npos;
         p = idle_.find_next(p + 1))
      idle.push_back(elastic_->workers()[p]);
    std::sort(idle.begin(), idle.end(), [&](NodeId a, NodeId b) {
      return spm_estimate(a) < spm_estimate(b);
    });
    // Idle probationers ride along behind the chosen workers: a duplicated
    // straggler chunk doubles as their admission probe (first completion
    // wins either way), so a node that joins after the queue ran dry can
    // still be admitted and absorb the tail.
    std::size_t probation_targets = 0;
    if (resil_on_) {
      for (const NodeId n : elastic_->probationers()) {
        if (busy_.at_or_default(n) == 0 && live_member_now(n)) {
          idle.push_back(n);
          ++probation_targets;
        }
      }
    }
    if (idle.empty()) return;
    // Collect candidates first: queue_chunk inserts into in_flight_ and
    // would invalidate the iteration otherwise.  Latest expected finish
    // first, so the fastest idle node relieves the worst chunk.
    struct Candidate {
      OpToken token;
      double expected_finish;  ///< dispatched + expected, on its holder
      bool straggler;
      std::uint64_t stamp;
    };
    const double now_s = backend_.now().value;
    std::vector<Candidate> candidates;
    for (const auto& [token, a] : in_flight_) {
      if (a.is_reissue || a.duplicated) continue;
      // Expected service time on the holder: its calibration/EWMA estimate.
      const double expected =
          spm_estimate(a.node) * a.work().value + 1.0;  // +1 s transfer
      const double age = now_s - a.dispatched.value;
      candidates.push_back({token, a.dispatched.value + expected,
                            age > params_.straggler_factor * expected,
                            a.stamp});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& x, const Candidate& y) {
                if (x.expected_finish != y.expected_finish)
                  return x.expected_finish > y.expected_finish;
                return x.stamp < y.stamp;
              });
    // Pair chunks with idle nodes.  Two triggers, both first-completion-wins:
    //  * straggler — the chunk is far past its expected time (the node
    //    seized up or died silently);
    //  * tail steal — the queue is dry and the chunk's expected finish is
    //    still far enough out that the idle node can redo it from scratch
    //    with half its cost again to spare.  Without it the last chunks
    //    grind on slow nodes while better ones sit idle.
    std::size_t next_idle = 0;
    for (const Candidate& c : candidates) {
      if (next_idle >= idle.size()) break;
      const NodeId target = idle[next_idle];
      Assignment& a = *in_flight_.find(c.token);
      const double idle_cost = spm_estimate(target) * a.work().value + 1.0;
      const bool tail_steal =
          c.expected_finish > now_s + params_.tail_steal_margin * idle_cost;
      if (!c.straggler && !tail_steal) continue;
      // Only the un-checkpointed, un-completed suffix needs a twin: the
      // checkpointed prefix is salvageable from the farmer's copy even if
      // the holder dies, so duplicating it would buy nothing.
      std::size_t skip = 0;
      if (ckpt_on_ && ledger_.tracks(c.token))
        skip = ledger_.checkpointed(c.token);
      std::vector<workloads::TaskSpec> pending;
      for (std::size_t i = skip; i < a.chunk.size(); ++i)
        if (!source_.is_completed(a.chunk[i].id)) pending.push_back(a.chunk[i]);
      if (pending.empty()) continue;
      a.duplicated = true;
      const bool as_probe = next_idle >= idle.size() - probation_targets;
      ++next_idle;
      ++report_.reissues;
      GRASP_LOG_INFO("farm") << "reissuing " << pending.size() << " tasks from "
                             << a.node.value << " to " << target.value
                             << (as_probe ? " (probation probe)" : "");
      queue_chunk(target, std::move(pending), true, as_probe);
    }
    // One batched submission for the round's reissue twins, like
    // dispatch_to_idle's waves.
    flush_dispatches();
  }

  // Shared completion handling for every mode.  Drives the input -> compute
  // -> output state machine and, on churn grids, the zombie test: a
  // completion whose dispatch-to-finish window straddles a crash of its node
  // never really happened.
  void process_completion(const Completion& c) {
    using Kind = gridsim::TraceEventKind;
    if (swallow_dead_token(c.token)) return;
    Assignment* live = in_flight_.find(c.token);
    if (live == nullptr)
      throw std::logic_error("TaskFarm: unknown completion token");

    if (churn_ != nullptr &&
        tracker_->live().crashed_during(live->node, live->dispatched,
                                        backend_.now())) {
      // Zombie chunk observed before the detector fired: the work is lost;
      // re-queue it here, exactly once (the ledger entry dies with it).
      Assignment a = in_flight_.take(c.token).second;
      met_.inc(rm_.zombie_completions);
      tel_.spans.end(a.span, 0.0, "zombie");
      if (flight_ != nullptr)
        flight_->note(backend_.now().value, "chunk", "zombie", a.node,
                      a.work().value);
      if (resil_on_) {
        const auto entry = ledger_.invalidate(
            c.token, [&](TaskId id) { return source_.is_completed(id); });
        if (entry) recover_checkpointed(*entry);
      } else {
        met_.inc(rm_.chunks_lost);
        met_.add(rm_.wasted_mops, a.work().value);
      }
      requeue_pending(a.chunk, a.node);
      if (a.is_reissue) {
        // The lost chunk was itself a twin: let its original be duplicated
        // again rather than grinding out the full duration unrelieved.
        for (auto& [token, other] : in_flight_) {
          (void)token;
          other.duplicated = false;
        }
      }
      if (resil_on_ && !tracker_->is_member(a.node))
        declare_dead(a.node, "connection lost");
      else
        set_busy(a.node, false);
      return;
    }

    // The next phase runs under the same token; the chunk's records change
    // in place.
    switch (live->phase) {
      case Assignment::Phase::Input: {
        live->phase = Assignment::Phase::Compute;
        live->compute_started = backend_.now();
        live->stamp = next_stamp_++;
        backend_.submit_compute(c.token, live->node, live->work(),
                                make_chunk_body(live->chunk));
        if (resil_on_) ledger_.advance(c.token);
        break;
      }
      case Assignment::Phase::Compute: {
        live->phase = Assignment::Phase::Output;
        live->stamp = next_stamp_++;
        Bytes output = Bytes::zero();
        for (const auto& t : live->chunk) output += t.output;
        backend_.submit_transfer(c.token, live->node, farmer_, output);
        if (resil_on_) ledger_.advance(c.token);
        break;
      }
      case Assignment::Phase::Output: {
        const Assignment a = in_flight_.take(c.token).second;
        if (resil_on_) ledger_.complete(c.token);
        const double elapsed = (backend_.now() - a.dispatched).value;
        met_.observe(h_service_, elapsed);
        tel_.spans.end(a.span, elapsed, "complete");
        const double spm = elapsed / std::max(1e-9, a.work().value);
        // Blend the observation into the node estimate (EWMA, alpha 0.5).
        double& estimate = node_spm_[a.node];
        estimate = estimate > 0.0 ? 0.5 * estimate + 0.5 * spm : spm;
        set_busy(a.node, false);
        std::vector<workloads::TaskSpec> marked;
        for (const auto& t : a.chunk) {
          if (source_.mark_completed(t.id)) {
            ++report_.tasks_completed;
            if (failover_on_) marked.push_back(t);
            ev_.emit(Kind::TaskCompleted, a.node, t.id, elapsed);
          }
        }
        if (!marked.empty()) {
          // The accepted results become authoritative farmer state the
          // next tick's flush replicates; until then they are exactly what
          // a promotion must roll back.
          double result_bytes = 0.0;
          for (const auto& t : marked) result_bytes += t.output.value;
          failover_->log().append({resil::ReplicaRecordKind::Complete, c.token,
                                   a.node, 0, 0, result_bytes,
                                   std::move(marked)});
        }
        if (a.is_probe) {
          // Fast-path calibration verdict for a newcomer.
          const bool admitted = elastic_->admit(
              a.node, spm, std::max(1e-9, exec_monitor_->baseline_spm()));
          if (admitted) {
            ev_.emit(Kind::NodeAdmitted, a.node, TaskId::invalid(), spm);
            exec_monitor_->arm(exec_monitor_->baseline_spm(),
                               elastic_->workers(), backend_.now());
            GRASP_LOG_INFO("farm") << "node " << a.node.value
                                   << " admitted (probe spm=" << spm << ")";
          }
        } else {
          exec_monitor_->observe(a.node, spm, backend_.now());
          if (resil_on_ &&
              elastic_->observe(a.node, spm, exec_monitor_->baseline_spm())) {
            ev_.emit(Kind::NodeEvicted, a.node, TaskId::invalid(), spm,
                     "persistent degradation");
            exec_monitor_->arm(exec_monitor_->baseline_spm(),
                               elastic_->workers(), backend_.now());
          }
        }
        note_if_all_done();
        break;
      }
    }
  }

  // A chunk completion outside the main loop's own handling: parked while
  // the farmer is down, processed otherwise.
  void deliver(const Completion& c) {
    if (farmer_down())
      parked_.push_back(c);
    else
      process_completion(c);
  }

  // Close a reconnect handshake: either commit the promotion (the new farmer
  // takes the endpoints, parked completions re-deliver, the standby set is
  // replenished) or abandon it because the successor died mid-handshake (the
  // next tick re-runs the successor rule).
  void finish_handshake() {
    using Kind = gridsim::TraceEventKind;
    handshake_token_ = 0;
    const Seconds now = backend_.now();
    const NodeId chosen = std::exchange(pending_farmer_, NodeId::invalid());
    if (!live_member_now(chosen)) {
      // Crash during promotion.  The registry keeps the corpse — it may
      // rejoin and resume from its watermark.
      tel_.spans.end(handshake_span_, 0.0, "successor died");
      handshake_span_ = 0;
      ev_.emit(Kind::FarmerCrashDetected, chosen, TaskId::invalid(), 0.0,
               "died during promotion");
      GRASP_LOG_INFO("farm") << "successor " << chosen.value
                             << " died during promotion at t=" << now.value;
      return;
    }
    if (pending_is_recovery_)
      failover_->farmer_recovered(now);
    else
      failover_->complete_promotion(chosen, now);
    const double promotion_latency = (now - failover_->down_since()).value;
    met_.observe(h_promote_, promotion_latency);
    tel_.spans.end(handshake_span_, 0.0, "committed");
    handshake_span_ = 0;
    tel_.spans.end(failover_span_, promotion_latency,
                   pending_is_recovery_ ? "recovered" : "promoted");
    failover_span_ = 0;
    farmer_ = chosen;
    ev_.emit(Kind::FarmerPromoted, farmer_, TaskId::invalid(),
             promotion_latency,
             pending_is_recovery_ ? "self-recovery"
             : promotion_waited_  ? "waited"
                                  : "prompt");
    GRASP_LOG_INFO("farm") << "farmer promoted: node " << farmer_.value
                           << " at t=" << now.value;
    // Re-root the support daemons on the new coordinator.
    monitor_->reroot(farmer_);
    cal_params_.root = farmer_;
    calibrator_.emplace(traits_, cal_params_);
    // Workers reconnect and re-deliver the results that raced the outage;
    // the zombie test inside judges each against the full window, so a
    // holder that died while parked is still caught.
    for (const Completion& parked_c : std::exchange(parked_, {}))
      process_completion(parked_c);
    snapshot_and_recruit();
    if (params_.resilience.recalibrate_on_crash) pending_recalibration_ = true;
  }

  const FarmParams params_;
  const SkeletonTraits traits_;
  OpPort& backend_;
  const gridsim::Grid& grid_;
  const gridsim::ChurnTimeline* const churn_;
  const bool resil_on_;
  // Checkpoints ride the heartbeat-aligned liveness tick (workers piggyback
  // progress on their beats), every `ckpt_every_`-th firing.
  const bool ckpt_on_;
  const std::size_t ckpt_every_;
  const std::vector<NodeId> pool_;
  std::vector<NodeId> initial_members_;

  FarmReport report_;
  TaskSource source_;
  TokenAllocator tokens_;

  // Telemetry.  Counters are the run's authoritative accounting — the
  // resilience report is a registry snapshot, never a separate tally — so
  // they record unconditionally; histograms and spans follow the
  // telemetry's detail gate.  Without a caller-supplied sink the farm
  // records into a private detail-disabled instance.
  obs::Telemetry private_telemetry_{/*detail=*/false};
  obs::Telemetry& tel_;
  obs::MetricsRegistry& met_;
  const BackendClock obs_clock_;
  obs::ClockLease clock_lease_;
  resil::ResilienceMetrics rm_;
  // Every engine event goes out through this one emitter (trace record,
  // resilience counter, span instant, flight note: see obs/emit.hpp).
  obs::Emitter ev_;
  // Baseline snapshot: a Telemetry reused across runs keeps accumulating,
  // and this run's report is the delta against these values.
  obs::MetricsSnapshot base_snap_;
  obs::HistogramHandle h_service_;
  obs::HistogramHandle h_detect_;
  obs::HistogramHandle h_promote_;
  obs::HistogramHandle h_ckpt_interval_;
  obs::HistogramHandle h_wave_;
  // Online SLO watchdog (observation only, never steers): probed from the
  // liveness ticks and the crash-declaration path.
  std::optional<obs::Watchdog> watchdog_;
  // Crash flight recorder: run bounds and chunk losses are noted here;
  // engine events reach it through the emitter.
  obs::FlightRecorder* const flight_;
  Seconds run_started_;
  // Mean task work, used for chunk sizing and straggler expectations.
  const double mean_work_;

  std::optional<perfmon::MonitorDaemon> monitor_;
  CalibrationParams cal_params_;
  std::optional<Calibrator> calibrator_;
  std::optional<ExecutionMonitor> exec_monitor_;

  // Resilience components.  The tracker/detector pair is the farmer's two
  // sources of membership knowledge: announcements (leave/join events) and
  // silence (heartbeat timeout).  The ledger guarantees exactly-once
  // re-dispatch of work lost to crashes.  The tracker is engaged on every
  // churn grid: its liveness cursor answers each "alive now?" check, the
  // zombie test and the detector's beats, with or without resilience.
  std::optional<resil::MembershipTracker> tracker_;
  std::optional<resil::FailureDetector> detector_;
  resil::ChunkLedger ledger_;
  std::optional<resil::ElasticPool> elastic_;

  // Replicated-farmer failover.  `farmer_` is the current coordinator: the
  // endpoint every dispatch ships from and every result returns to.  With
  // the subsystem off it never changes and the farmer is assumed reliable,
  // exactly the pre-failover contract.
  bool failover_on_ = false;
  NodeId farmer_;
  std::optional<resil::FailoverCoordinator> failover_;
  // Promotion-in-progress state: the reconnect handshake timer, the chosen
  // successor, and completions that raced the outage (physically: results
  // parked at their workers until the new farmer is reachable).
  OpToken handshake_token_ = 0;
  // Failover arc span: crash detection → rollback → promotion → handshake
  // (the handshake is a child span).  0 while no outage is in progress.
  obs::SpanId failover_span_ = 0;
  obs::SpanId handshake_span_ = 0;
  NodeId pending_farmer_ = NodeId::invalid();
  bool pending_is_recovery_ = false;  ///< old farmer rejoined, state intact
  bool promotion_waited_ = false;  ///< successor not available at detection
  std::vector<Completion> parked_;

  // Chunks currently travelling the input -> compute -> output chain, each
  // under its one token.  At most one per worker (plus reissue twins).  A
  // FlatMap: O(1) per-completion find/erase.  Scans whose order shows
  // (checkpoint pass, reissue tie-break) order by Assignment::stamp.
  FlatMap<OpToken, Assignment> in_flight_;
  std::uint64_t next_stamp_ = 0;
  // Tokens of chunks surrendered to crash recovery; their completions (the
  // zombies) are swallowed when the backend eventually delivers them.
  std::unordered_set<OpToken> dead_tokens_;
  // The subset of dead_tokens_ abandoned by mid-chunk eviction: the holder
  // is alive, so its eventual completion is discarded but must not count
  // as a zombie (that counter means "completions discarded post-crash").
  std::unordered_set<OpToken> evicted_tokens_;
  // Deaths declared since the open calibration pass last polled (it
  // abandons pending samples on these nodes instead of stalling on their
  // outage).
  std::vector<NodeId> newly_dead_;
  // Membership is consumed from the end of the initial calibration on
  // (churn waits out the warmup).
  bool execution_started_ = false;
  // Periodic liveness tick (resilient runs): a one-shot backend timer,
  // re-armed on every firing, whose delivery drives the failure detector
  // even when no chunk completions are flowing.  This bounds crash
  // detection at timeout + heartbeat_period unconditionally — a quiescent
  // farm whose only in-flight chunk sits on the corpse no longer waits for
  // the zombie completion to notice.
  OpToken tick_token_ = 0;
  std::size_t ticks_seen_ = 0;
  // Time of the last checkpoint pass that accepted progress, for the
  // checkpoint-interval histogram.
  Seconds last_ckpt_at_ = Seconds::zero();
  bool any_ckpt_yet_ = false;

  // The open Algorithm 1 pass (none while no calibration runs) and its
  // span.  The initial pass is the one before execution starts.
  std::optional<CalibrationPass> pass_;
  obs::SpanId pass_span_ = 0;
  std::vector<NodeId> workers_before_pass_;
  // The initial calibration's baseline: the spm fallback for nodes with no
  // estimate yet.
  double initial_baseline_spm_ = 0.0;

  // Per-node performance estimate (seconds per Mop), seeded by calibration
  // and refreshed by every completion; drives chunking and stragglers.
  // Dense-slot tables keyed by node id: these are read on every dispatch
  // pass for every worker, where direct indexing beats hashing outright
  // (0 means "no estimate yet" — real estimates are strictly positive).
  NodeMap<double> node_spm_;
  // Per-node current chunk size (adaptive chunking).
  NodeMap<std::size_t> node_chunk_;
  // One chunk per worker: busy_ is written only through set_busy.  Bit p
  // of idle_ is set when worker p of elastic_->workers() is not busy, so a
  // dispatch pick is a first-set-bit search, not a walk over the pool.
  // member_pos_ maps a worker to p.  Both are rebuilt by sync_idle when
  // the pool's revision moves (reset, remove, admit, evict); npos means
  // "never built".
  NodeMap<char> busy_;
  NodeMap<std::size_t> member_pos_{DynamicBitset::npos};
  DynamicBitset idle_;
  std::size_t idle_revision_ = DynamicBitset::npos;

  Seconds finish_time_ = Seconds::zero();
  bool all_done_seen_ = false;  ///< finish_time_ holds the makespan
  std::size_t recalibrations_ = 0;
  bool pending_recalibration_ = false;

  // Dispatch rounds hand a whole wave of chunk transfers to the backend in
  // one submit_batch call (one bulk event-queue insert on the simulator).
  // queue_chunk stages a chunk; flush_dispatches ships the wave.  Batch
  // order equals call order, so completion ordering is identical to
  // one-at-a-time submission.
  std::vector<OpRequest> dispatch_wave_;

  Mode mode_ = Mode::Calibrating;
  bool drain_then_recalibrate_ = false;
};

}  // namespace

TaskFarm::TaskFarm(FarmParams params) : params_(std::move(params)) {
  // Every real-valued check is written to fail on NaN and inf as well: a
  // NaN compares false both ways, so `x <= bound` alone would let it pass.
  const auto finite_at_least = [](double v, double lo) {
    return std::isfinite(v) && v >= lo;
  };
  const auto finite_above = [](double v, double lo) {
    return std::isfinite(v) && v > lo;
  };
  if (params_.chunk_size == 0)
    throw std::invalid_argument("TaskFarm: chunk_size must be positive");
  if (!finite_at_least(params_.target_chunk_seconds, 0.0))
    throw std::invalid_argument(
        "TaskFarm: target_chunk_seconds must be finite and non-negative");
  if (!finite_above(params_.straggler_factor, 1.0))
    throw std::invalid_argument(
        "TaskFarm: straggler_factor must be finite and exceed 1");
  if (!finite_above(params_.tail_steal_margin, 1.0))
    throw std::invalid_argument(
        "TaskFarm: tail_steal_margin must be finite and exceed 1");
  const FarmResilience& res = params_.resilience;
  if (!finite_at_least(res.checkpoint_period.value, 0.0))
    throw std::invalid_argument(
        "TaskFarm: checkpoint_period must be finite and non-negative");
  if (res.enabled) {
    res.detector.validate();
    res.pool.validate();
  }
  if (res.failover.standby_count > 0 &&
      !finite_at_least(res.failover.handshake.value, 0.0))
    throw std::invalid_argument(
        "TaskFarm: failover handshake must be finite and non-negative");
  params_.slos.validate();
}


FarmReport TaskFarm::run(Backend& backend, const gridsim::Grid& grid,
                         const std::vector<NodeId>& pool,
                         const workloads::TaskSet& tasks) {
  const std::unique_ptr<FarmEngine> run = engine(backend, grid, pool, tasks);
  drive(backend, *run);
  return run->take_report();
}

std::unique_ptr<FarmEngine> TaskFarm::engine(
    OpPort& backend, const gridsim::Grid& grid, std::vector<NodeId> pool,
    const workloads::TaskSet& tasks) const {
  return std::make_unique<FarmRun>(params_, backend, grid, std::move(pool),
                                   tasks);
}

}  // namespace grasp::core
