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
#include "support/flat_map.hpp"
#include "support/log.hpp"
#include "svc/grid_service.hpp"

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

}  // namespace

TaskFarm::TaskFarm(FarmParams params) : params_(std::move(params)),
                                        traits_(task_farm_traits()) {
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
  if (res.checkpoint_period.value > 0.0 &&
      !finite_above(res.detector.heartbeat_period.value, 0.0))
    throw std::invalid_argument(
        "TaskFarm: checkpointing needs a finite positive heartbeat_period "
        "to ride");
  if (res.failover.standby_count > 0) {
    if (!finite_above(res.detector.heartbeat_period.value, 0.0))
      throw std::invalid_argument(
          "TaskFarm: farmer failover needs a finite positive "
          "heartbeat_period");
    if (!finite_at_least(res.failover.handshake.value, 0.0))
      throw std::invalid_argument(
          "TaskFarm: failover handshake must be finite and non-negative");
    if (!finite_at_least(res.failover.handshake_per_worker.value, 0.0))
      throw std::invalid_argument(
          "TaskFarm: failover handshake_per_worker must be finite and "
          "non-negative");
  }
}

FarmReport TaskFarm::run(Backend& backend, const gridsim::Grid& grid,
                         const std::vector<NodeId>& pool,
                         const workloads::TaskSet& tasks) {
  // Single-tenant service: one job, no arrivals, no shared cache — the
  // service takes its inline fast path and the engine runs on this thread
  // against `backend` directly, exactly as run_engine would.
  svc::GridService::Params service_params;
  service_params.use_calibration_cache = false;
  svc::GridService service(backend, grid, pool, service_params);
  const svc::JobHandle handle = service.submit(svc::FarmJob{params_, tasks});
  service.wait(handle);  // rethrows whatever the engine threw
  return handle.farm_report();
}

FarmReport TaskFarm::run_engine(Backend& backend, const gridsim::Grid& grid,
                                const std::vector<NodeId>& pool,
                                const workloads::TaskSet& tasks) {
  if (pool.empty()) throw std::invalid_argument("TaskFarm: empty pool");

  const gridsim::ChurnTimeline* churn = grid.churn();
  const bool resil_on = params_.resilience.enabled && churn != nullptr;
  // Checkpoints ride the heartbeat-aligned liveness tick (workers piggyback
  // progress on their beats), every `ckpt_every`-th firing.
  const bool ckpt_on =
      resil_on && params_.resilience.checkpoint_period.value > 0.0;
  const std::size_t ckpt_every =
      ckpt_on ? std::max<std::size_t>(
                    1, static_cast<std::size_t>(std::llround(
                           params_.resilience.checkpoint_period.value /
                           params_.resilience.detector.heartbeat_period.value)))
              : 1;

  // The initial worker candidates: pool members present at t=0.  Absent
  // nodes (late joiners) enter through membership events.
  std::vector<NodeId> initial_members =
      churn ? churn->members_at(pool, backend.now()) : pool;
  if (initial_members.empty())
    throw std::invalid_argument("TaskFarm: no pool member is present at t=0");
  const NodeId root =
      params_.root.is_valid() ? params_.root : initial_members.front();

  FarmReport report;
  TaskSource source(tasks);
  TokenAllocator tokens;

  // Telemetry.  Counters are the run's authoritative accounting — the
  // resilience report below is a registry snapshot, never a separate
  // tally — so they record unconditionally; histograms and spans follow
  // the telemetry's detail gate.  Without a caller-supplied sink the farm
  // records into a private detail-disabled instance.
  obs::Telemetry private_telemetry(/*detail=*/false);
  obs::Telemetry& tel =
      params_.telemetry != nullptr ? *params_.telemetry : private_telemetry;
  obs::MetricsRegistry& met = tel.metrics;
  const BackendClock obs_clock(backend);
  struct ClockGuard {  // the adapter dies with this frame; detach on exit
    obs::Telemetry& tel;
    ~ClockGuard() { tel.set_clock(nullptr); }
  } clock_guard{tel};
  tel.set_clock(&obs_clock);
  const resil::ResilienceMetrics rm =
      resil::ResilienceMetrics::register_in(met);
  // Every engine event goes out through this one emitter (trace record,
  // resilience counter, span instant, flight note: see obs/emit.hpp).
  obs::Emitter ev(obs_clock, report.trace, tel.spans, tel.flight, &met, &rm);
  using Kind = gridsim::TraceEventKind;
  // Baseline snapshot: a Telemetry reused across runs keeps accumulating,
  // and this run's report is the delta against these values.
  const obs::MetricsSnapshot base_snap = met.snapshot();
  const obs::HistogramHandle h_service =
      met.histogram("farm.task_service_seconds", {1e-3, 2.0, 48});
  const obs::HistogramHandle h_detect =
      met.histogram("farm.detection_latency_seconds", {1e-3, 2.0, 48});
  const obs::HistogramHandle h_promote =
      met.histogram("farm.promotion_latency_seconds", {1e-3, 2.0, 48});
  const obs::HistogramHandle h_ckpt_interval =
      met.histogram("farm.checkpoint_interval_seconds", {1e-3, 2.0, 48});
  const obs::HistogramHandle h_wave =
      met.histogram("farm.dispatch_wave_size", {1.0, 2.0, 16});
  // Detection instrumentation: the effective-timeout histogram shows what
  // leash the accrual detector actually gave each node it declared dead.
  const obs::HistogramHandle h_eff_timeout =
      met.histogram("resil.detector.effective_timeout_s", {1e-2, 2.0, 16});
  // Online SLO watchdog (observation only, never steers): probed from the
  // liveness ticks and the crash-declaration path below.
  std::optional<obs::Watchdog> watchdog;
  if (params_.slos.any()) watchdog.emplace(params_.slos, tel);
  // Crash flight recorder: run bounds and chunk losses are noted here;
  // engine events reach it through the emitter.
  obs::FlightRecorder* const flight = tel.flight;
  const Seconds run_started = backend.now();
  if (flight != nullptr)
    flight->note(run_started.value, "run", "farm_begin", root,
                 static_cast<double>(tasks.size()));

  // Mean task work, used for chunk sizing and straggler expectations.
  const double mean_work =
      tasks.total_work().value / static_cast<double>(tasks.size());

  perfmon::MonitorDaemon::Params mon_params = params_.monitor;
  mon_params.root = root;
  perfmon::MonitorDaemon monitor(grid, initial_members, mon_params);
  monitor.attach_metrics(&met);

  CalibrationParams cal_params = params_.calibration;
  if (!cal_params.root.is_valid()) cal_params.root = root;
  Calibrator calibrator(traits_, cal_params);

  ExecutionMonitor exec_monitor(traits_, params_.threshold);

  // Resilience components.  The tracker/detector pair is the farmer's two
  // sources of membership knowledge: announcements (leave/join events) and
  // silence (heartbeat timeout).  The ledger guarantees exactly-once
  // re-dispatch of work lost to crashes.
  std::optional<resil::MembershipTracker> tracker;
  std::optional<resil::FailureDetector> detector;
  resil::ChunkLedger ledger;
  resil::ElasticPool elastic(params_.resilience.pool);
  if (resil_on) {
    tracker.emplace(*churn, pool);
    detector.emplace(params_.resilience.detector);
    for (const NodeId n : initial_members) detector->watch(n, backend.now());
  }

  // Replicated-farmer failover.  `farmer` is the current coordinator: the
  // endpoint every dispatch ships from and every result returns to.  With
  // the subsystem off it never changes and the farmer is assumed reliable,
  // exactly the pre-failover contract.
  const bool failover_on =
      resil_on && params_.resilience.failover.standby_count > 0;
  NodeId farmer = root;
  std::optional<resil::FailoverCoordinator> failover;
  if (failover_on) {
    resil::FailoverCoordinator::Params fp = params_.resilience.failover;
    fp.detector = params_.resilience.detector;  // ride the same heartbeats
    failover.emplace(fp, root, backend.now());
  }
  // Promotion-in-progress state: the reconnect handshake timer, the chosen
  // successor, and completions that raced the outage (physically: results
  // parked at their workers until the new farmer is reachable).
  OpToken handshake_token = 0;
  // Failover arc span: crash detection → rollback → promotion → handshake
  // (the handshake is a child span).  0 while no outage is in progress.
  obs::SpanId failover_span = 0;
  obs::SpanId handshake_span = 0;
  NodeId pending_farmer = NodeId::invalid();
  bool pending_is_recovery = false;  ///< old farmer rejoined, state intact
  bool promotion_waited = false;  ///< successor not available at detection
  std::vector<Completion> parked;
  bool in_calibration = false;
  // Backend time the open calibration pass began (-1 when none is open);
  // feeds the watchdog's calibration-stall rule.
  double calibration_opened_s = -1.0;
  auto is_handshake = [&](OpToken token) {
    return handshake_token != 0 && token == handshake_token;
  };
  auto farmer_down = [&] { return failover_on && failover->farmer_down(); };
  auto live_member_now = [&](NodeId n) {
    return churn != nullptr && churn->is_member(n, backend.now());
  };
  auto replicate_baseline = [&] {
    if (!failover_on) return;
    failover->log().append(
        {resil::ReplicaRecordKind::Baseline, 0, farmer, 0, 0, 0.0, {}});
    // A calibration ends in a pool-wide collective; its dissemination
    // doubles as a synchronous log flush, so a rollback never spans one
    // (sample results live distributed at the workers that produced them
    // and are re-delivered on the reconnect handshake).
    if (live_member_now(farmer))
      failover->account_flush(failover->log().flush(live_member_now));
  };

  // Chunks currently travelling the input -> compute -> output chain.  At
  // most one per worker (plus reissue twins).  A FlatMap: O(1)
  // per-completion find/erase, and the reissue/steal scans walk it in order
  // of last insertion, so their choices are deterministic.
  FlatMap<OpToken, Assignment> in_flight;
  // Tokens of chunks surrendered to crash recovery; their completions (the
  // zombies) are swallowed when the backend eventually delivers them.
  std::unordered_set<OpToken> dead_tokens;
  // The subset of dead_tokens abandoned by mid-chunk eviction: the holder
  // is alive, so its eventual completion is discarded but must not count
  // as a zombie (that counter means "completions discarded post-crash").
  std::unordered_set<OpToken> evicted_tokens;
  auto swallow_dead_token = [&](OpToken token) {
    if (dead_tokens.erase(token) == 0) return false;
    if (evicted_tokens.erase(token) == 0)
      met.inc(rm.zombie_completions);
    return true;
  };
  // Deaths declared since the calibrator last polled (it abandons pending
  // samples on these nodes instead of stalling on their outage).
  std::vector<NodeId> newly_dead;
  // Membership consumption, assigned once the recovery lambdas exist below;
  // null during the initial calibration (churn waits out the warmup).
  std::function<void(Seconds)> membership_hook;
  // Routes an engine completion popped inside a recalibration back through
  // the farm's state machine, so resilient recalibrations overlap with
  // ongoing execution instead of draining the pool first.  Assigned below.
  std::function<bool(OpToken)> absorb_engine_completion;
  // Periodic liveness tick (resilient runs): a one-shot backend timer,
  // re-armed on every firing, whose delivery drives the failure detector
  // even when no chunk completions are flowing.  This bounds crash
  // detection at timeout + heartbeat_period unconditionally — a quiescent
  // farm whose only in-flight chunk sits on the corpse no longer waits for
  // the zombie completion to notice.  Handler assigned below.
  OpToken tick_token = 0;
  std::size_t ticks_seen = 0;
  // Time of the last checkpoint pass that accepted progress, for the
  // checkpoint-interval histogram.
  Seconds last_ckpt_at = Seconds::zero();
  bool any_ckpt_yet = false;
  std::function<void()> handle_tick;
  auto is_tick = [&](OpToken token) {
    return tick_token != 0 && token == tick_token;
  };
  ForeignOps foreign;
  foreign.pending = [&] { return dead_tokens.size() + in_flight.size(); };
  foreign.swallow = [&](OpToken token) {
    if (is_tick(token)) {
      // A tick delivered inside a (re)calibration still advances liveness:
      // the calibrator's dead-node poll picks up the verdict next round.
      handle_tick();
      return true;
    }
    if (swallow_dead_token(token)) return true;
    return absorb_engine_completion && absorb_engine_completion(token);
  };
  foreign.dead_nodes = [&](Seconds now) {
    if (membership_hook) membership_hook(now);
    return std::exchange(newly_dead, {});
  };
  foreign.surrender = [&](OpToken token, NodeId node,
                          const workloads::TaskSpec& task, bool is_probe) {
    dead_tokens.insert(token);
    if (is_probe || !task.id.is_valid() || source.is_completed(task.id))
      return;
    source.push_front(task);
    ev.emit(Kind::ChunkRedispatched, node, task.id, 0.0, "calibration");
  };

  // ---- Phase: calibration (Algorithm 1) -------------------------------
  in_calibration = true;
  calibration_opened_s = backend.now().value;
  const obs::SpanId cal_span = tel.spans.begin("calibration");
  CalibrationResult calibration = calibrator.run(
      backend, initial_members, source, &monitor, &ev, tokens, &foreign);
  tel.spans.end(cal_span,
                static_cast<double>(calibration.tasks_consumed), "initial");
  in_calibration = false;
  calibration_opened_s = -1.0;
  report.calibration_tasks += calibration.tasks_consumed;
  // Only the initial calibration warm-starts from the shared cache: a
  // recalibration is triggered by evidence that conditions moved, so it
  // re-measures every node — while still publishing its fresh samples for
  // the next tenant.
  if (cal_params.spm_cache != nullptr && cal_params.warm_start) {
    cal_params.warm_start = false;
    calibrator = Calibrator(traits_, cal_params);
  }
  exec_monitor.arm(calibration.baseline_spm, calibration.chosen,
                   backend.now());
  elastic.reset(calibration.chosen);
  replicate_baseline();

  // Per-node performance estimate (seconds per Mop), seeded by calibration
  // and refreshed by every completion; drives chunking and stragglers.
  // Dense-slot tables keyed by node id: these are read on every dispatch
  // pass for every worker, where direct indexing beats hashing outright
  // (0 means "no estimate yet" — real estimates are strictly positive).
  NodeMap<double> node_spm;
  for (const auto& s : calibration.ranking) node_spm[s.node] = s.adjusted_spm;
  // Per-node current chunk size (adaptive chunking).
  NodeMap<std::size_t> node_chunk;
  for (const NodeId n : pool) node_chunk[n] = params_.chunk_size;

  NodeMap<char> busy;
  for (const NodeId n : pool) busy[n] = false;

  Seconds finish_time = Seconds::zero();
  bool finished = false;
  std::size_t recalibrations = 0;
  bool pending_recalibration = false;

  // Wrap the caller's per-task payload (if any) around a chunk: the
  // threaded backend runs it on the worker thread, the simulator ignores it.
  auto make_chunk_body =
      [&](const std::vector<workloads::TaskSpec>& chunk) -> std::function<void()> {
    if (!params_.calibration.task_body) return {};
    return [fn = params_.calibration.task_body, chunk] {
      for (const auto& t : chunk) fn(t);
    };
  };

  auto spm_estimate = [&](NodeId n) {
    const double estimate = node_spm.at_or_default(n);
    if (estimate > 0.0) return estimate;
    return std::max(1e-9, calibration.baseline_spm);
  };

  auto chunk_for = [&](NodeId n) -> std::size_t {
    if (!params_.adaptive_chunking) return params_.chunk_size;
    const double per_task = spm_estimate(n) * mean_work;
    if (per_task <= 0.0) return params_.chunk_size;
    const auto ideal = static_cast<std::size_t>(
        std::llround(params_.target_chunk_seconds / per_task));
    const std::size_t clamped = std::clamp<std::size_t>(ideal, 1, kMaxChunk);
    if (clamped != node_chunk[n]) {
      node_chunk[n] = clamped;
      ev.emit(Kind::ChunkResized, n, TaskId::invalid(),
              static_cast<double>(clamped), "chunk");
    }
    return clamped;
  };

  // Dispatch rounds hand a whole wave of chunk transfers to the backend in
  // one submit_batch call (one bulk event-queue insert on the simulator).
  // queue_chunk stages a chunk; flush_dispatches ships the wave.  Batch
  // order equals call order, so completion ordering is identical to
  // one-at-a-time submission.
  std::vector<OpRequest> dispatch_wave;
  auto queue_chunk = [&](NodeId node, std::vector<workloads::TaskSpec> chunk,
                         bool is_reissue, bool is_probe = false) {
    Assignment a;
    a.chunk = std::move(chunk);
    a.node = node;
    a.dispatched = backend.now();
    a.is_reissue = is_reissue;
    a.is_probe = is_probe;
    a.span = tel.spans.begin("chunk", 0, node,
                             a.chunk.empty() ? TaskId::invalid()
                                             : a.chunk.front().id,
                             a.work().value);
    Bytes input = Bytes::zero();
    for (const auto& t : a.chunk) input += t.input;
    const OpToken token = tokens.alloc();
    dispatch_wave.push_back(OpRequest::transfer(token, farmer, node, input));
    for (const auto& t : a.chunk)
      ev.emit(is_reissue ? Kind::TaskReissued : Kind::TaskDispatched, node,
              t.id, t.work.value);
    busy[node] = true;
    if (resil_on)
      ledger.record(token, {node, a.chunk, a.dispatched, a.work()});
    if (failover_on)
      failover->log().append(
          {resil::ReplicaRecordKind::Assign, token, node, 0, 0, 0.0, {}});
    in_flight.emplace(token, std::move(a));
  };
  auto flush_dispatches = [&] {
    if (dispatch_wave.empty()) return;
    met.observe(h_wave, static_cast<double>(dispatch_wave.size()));
    backend.submit_batch(std::move(dispatch_wave));
    dispatch_wave.clear();
  };

  // Return the unfinished tasks of a lost chunk to the front of the queue
  // (order-preserving), tracing each re-dispatch.
  auto requeue_pending = [&](const std::vector<workloads::TaskSpec>& chunk,
                            NodeId from) {
    for (auto it = chunk.rbegin(); it != chunk.rend(); ++it) {
      if (source.is_completed(it->id)) continue;
      source.push_front(*it);
      ev.emit(Kind::ChunkRedispatched, from, it->id);
    }
  };

  // Salvage the checkpointed prefix of a surrendered chunk: those tasks'
  // partial results already sit at the farmer, so they are completed here
  // rather than re-dispatched (the suffix-only re-dispatch rule).  Tasks a
  // winning twin finished first stay with the twin — mark_completed dedupes.
  auto recover_checkpointed = [&](const resil::ChunkLedger::Entry& entry) {
    const std::size_t upto = std::min(entry.checkpointed, entry.tasks.size());
    std::vector<workloads::TaskSpec> marked;
    for (std::size_t i = 0; i < upto; ++i) {
      const auto& t = entry.tasks[i];
      if (!t.id.is_valid() || !source.mark_completed(t.id)) continue;
      ++report.tasks_completed;
      if (failover_on) marked.push_back(t);
      ev.emit(Kind::TaskRecovered, entry.node, t.id, t.work.value,
              "checkpoint");
      ev.emit(Kind::TaskCompleted, entry.node, t.id, 0.0, "recovered");
    }
    if (!marked.empty()) {
      // Recovered results are freshly authoritative farmer state: the next
      // flush must replicate them like any other accepted completion.
      double result_bytes = 0.0;
      for (const auto& t : marked) result_bytes += t.output.value;
      failover->log().append({resil::ReplicaRecordKind::Complete, 0,
                              entry.node, 0, 0, result_bytes,
                              std::move(marked)});
    }
    if (!finished && source.all_done()) {
      finished = true;
      finish_time = backend.now();
    }
  };

  // Current live view the farmer holds: every node it still watches.
  auto farmer_live_view = [&]() -> std::vector<NodeId> {
    if (!resil_on) return initial_members;
    return detector->watched();
  };

  // Declare `node` dead: stop watching it, shrink the worker set, and
  // surrender its in-flight chunks to the queue — exactly once, via the
  // ledger.  `why` lands in the trace for post-hoc timelines.
  auto declare_dead = [&](NodeId node, const char* why) {
    if (!resil_on || !detector->watching(node)) return;
    if (met.enabled())
      met.observe(h_eff_timeout, detector->effective_timeout(node).value);
    detector->unwatch(node);
    elastic.remove(node);
    busy[node] = false;
    newly_dead.push_back(node);
    if (failover_on) {
      failover->log().append(
          {resil::ReplicaRecordKind::Membership, 0, node, 0, 0, 0.0, {}});
      if (failover->is_standby(node)) failover->standby_lost(node);
    }
    // Detection latency: now minus the actual crash instant (the latest
    // Crash event for this node).  Rare path, so the timeline scan is
    // affordable.  Computed when either consumer wants it: the detail-tier
    // histogram, or a detection-latency SLO (which must fire even with the
    // detail tier off).
    if (met.enabled() ||
        (watchdog && watchdog->rules().detection_latency_s > 0.0)) {
      const auto& events = churn->events();
      for (auto it = events.rbegin(); it != events.rend(); ++it) {
        if (it->at > backend.now()) continue;
        if (it->node != node ||
            it->kind != gridsim::ChurnEventKind::Crash)
          continue;
        const double latency = (backend.now() - it->at).value;
        met.observe(h_detect, latency);
        if (watchdog)
          watchdog->check_detection(node, backend.now().value, latency);
        break;
      }
    }
    ev.emit(Kind::NodeCrashDetected, node, TaskId::invalid(), 0.0, why);
    GRASP_LOG_INFO("farm") << "node " << node.value << " declared dead ("
                           << why << ") at t=" << backend.now().value;
    const auto already_done = [&](TaskId id) { return source.is_completed(id); };
    for (auto& [token, entry] : ledger.fail_node(node, already_done)) {
      if (auto [found, lost] = in_flight.take(token); found) {
        dead_tokens.insert(token);
        tel.spans.end(lost.span, 0.0, "lost");
        if (flight != nullptr)
          flight->note(backend.now().value, "chunk", "lost", node,
                       lost.work().value);
      }
      recover_checkpointed(entry);
      requeue_pending(entry.tasks, node);
    }
    // The crash may have taken reissue twins with it: clear the duplicated
    // marks so the surviving originals are eligible for straggler/tail
    // relief again.  Over-clearing is safe — first completion wins.
    for (auto& [token, a] : in_flight) {
      (void)token;
      a.duplicated = false;
    }
    monitor.rewatch(farmer_live_view());
    exec_monitor.arm(exec_monitor.baseline_spm(), elastic.workers(),
                     backend.now());
    // A dead coordinator cannot usefully re-run Algorithm 1 — and letting
    // it try would stall the promotion behind a calibration rooted at a
    // corpse.  The promotion path schedules its own recalibration.
    if (params_.resilience.recalibrate_on_crash &&
        !(failover_on && node == farmer))
      pending_recalibration = true;
  };

  // Consume membership events and heartbeat silence up to `now`.
  auto consume_membership = [&](Seconds now) {
    if (!resil_on) return;
    detector->advance(now, [&](NodeId n, Seconds t) {
      return churn->is_member(n, t);
    });
    for (const auto& e : tracker->poll(now)) {
      switch (e.kind) {
        case gridsim::ChurnEventKind::Crash:
          // The farmer cannot see a crash directly; the detector (silence)
          // or a zombie completion reveals it.
          break;
        case gridsim::ChurnEventKind::Leave:
          if (detector->watching(e.node)) {
            detector->unwatch(e.node);
            elastic.remove(e.node);
            if (failover_on) {
              failover->log().append({resil::ReplicaRecordKind::Membership, 0,
                                      e.node, 0, 0, 0.0, {}});
              if (failover->is_standby(e.node))
                failover->standby_lost(e.node);
              if (e.node == farmer && failover->farmer_leaving(now)) {
                // A graceful departure ships its unflushed suffix on the
                // way out: the successor starts from complete state and
                // nothing rolls back.
                failover->account_flush(
                    failover->log().flush(live_member_now));
                if (failover_span == 0)
                  failover_span = tel.spans.begin("failover", 0, e.node);
                ev.emit(Kind::FarmerCrashDetected, e.node, TaskId::invalid(),
                        0.0, "announced departure");
              }
            }
            // A calibration running right now must abandon this node's
            // samples (it can no longer be chosen); execution-phase chunks
            // still drain gracefully.
            newly_dead.push_back(e.node);
            ev.emit(Kind::NodeLeftPool, e.node, TaskId::invalid(), 0.0,
                    "announced");
            monitor.rewatch(farmer_live_view());
            exec_monitor.arm(exec_monitor.baseline_spm(), elastic.workers(),
                             now);
          }
          break;
        case gridsim::ChurnEventKind::Join:
        case gridsim::ChurnEventKind::Rejoin:
          ev.emit(Kind::NodeJoinedPool, e.node, TaskId::invalid(), 0.0,
                  e.kind == gridsim::ChurnEventKind::Rejoin ? "rejoin"
                                                            : "join");
          detector->watch(e.node, now);
          if (failover_on)
            failover->log().append({resil::ReplicaRecordKind::Membership, 0,
                                    e.node, 0, 0, 0.0, {}});
          // Clear a stale busy flag only when nothing is actually in flight
          // there: a node rejoining before its stalled chunk surfaced as a
          // zombie is still occupied, and dispatching a second chunk would
          // break the one-chunk-per-worker discipline.
          {
            bool occupied = false;
            for (const auto& [token, a] : in_flight) {
              (void)token;
              if (a.node == e.node) occupied = true;
            }
            if (!occupied) busy[e.node] = false;
          }
          if (params_.resilience.elastic_join) elastic.begin_probation(e.node);
          monitor.rewatch(farmer_live_view());
          break;
      }
    }
    for (const NodeId n : detector->suspects(now))
      declare_dead(n, "heartbeat timeout");
  };

  // Checkpoint pass: absorb the progress reports workers piggybacked on
  // their last heartbeats.  Progress is what the backend surfaces for the
  // chunk's compute op; the shipped high-water mark is the longest task
  // prefix whose work fits in the elapsed fraction.  With eviction enabled
  // the same reports double as execution observations, so a chunk crawling
  // far behind the baseline is abandoned mid-flight: the node is evicted,
  // the checkpointed prefix salvaged, and only the suffix re-dispatched.
  auto take_checkpoints = [&] {
    if (!ckpt_on) return;
    const obs::SpanId pass_span = tel.spans.begin("checkpoint_pass");
    std::vector<OpToken> abandoned;
    // The pass stages every accepted progress report and applies them to
    // the ledger in one checkpoint_batch call at the end.
    std::vector<resil::ChunkLedger::CheckpointUpdate> updates;
    for (auto& [token, a] : in_flight) {
      if (a.phase != Assignment::Phase::Compute) continue;
      // A worker that crashed since this chunk was dispatched ships nothing
      // more for it: the crash destroyed the chunk's in-memory state, so
      // even after a rejoin there is no fresher partial result to report —
      // whatever was checkpointed before the crash stays valid (it already
      // reached the farmer), and the completion, when it surfaces, is a
      // zombie.  Announced leavers keep reporting: they drain gracefully.
      if (churn->crashed_during(a.node, a.dispatched, backend.now()))
        continue;
      const double frac = backend.compute_progress(token);
      if (frac <= 0.0) continue;
      const double budget = frac * a.work().value;
      std::size_t done = 0;
      double acc = 0.0;
      for (const auto& t : a.chunk) {
        acc += t.work.value;
        if (acc > budget && frac < 1.0) break;
        ++done;
      }
      const std::size_t prev = ledger.checkpointed(token);
      if (done > prev && ledger.tracks(token)) {
        // The newly checkpointed tasks' partial results ship to the farmer;
        // their volume is what checkpoint shipping costs.  (The virtual-time
        // farm accounts the bytes; the mp transport charges them through the
        // world's send hook.)
        double state_bytes = 0.0;
        for (std::size_t i = prev; i < done && i < a.chunk.size(); ++i)
          state_bytes += a.chunk[i].output.value;
        updates.push_back({token, done, state_bytes});
        if (failover_on)
          failover->log().append({resil::ReplicaRecordKind::Checkpoint, token,
                                  a.node, prev, done, state_bytes, {}});
        ev.emit(Kind::ChunkCheckpointed, a.node, TaskId::invalid(),
                static_cast<double>(done));
      }
      // Mid-chunk degradation check (only meaningful once some progress
      // exists to estimate speed from).  Measured from the compute phase's
      // start so the input transfer does not inflate the estimate early in
      // the chunk.  Reissue twins are exempt: their originals already
      // cover the work, first completion wins.
      if (!a.is_reissue && elastic.contains(a.node) &&
          params_.resilience.pool.evict_ratio > 0.0) {
        const double est_spm = (backend.now() - a.compute_started).value /
                               std::max(1e-9, budget);
        if (elastic.observe(a.node, est_spm, exec_monitor.baseline_spm()))
          abandoned.push_back(token);
      }
    }
    // Apply the pass's progress reports before processing evictions, so an
    // evicted chunk salvages the prefix this very pass just checkpointed.
    ledger.checkpoint_batch(updates);
    if (!updates.empty()) {
      if (any_ckpt_yet)
        met.observe(h_ckpt_interval, (backend.now() - last_ckpt_at).value);
      any_ckpt_yet = true;
      last_ckpt_at = backend.now();
    }
    const auto already_done =
        [&](TaskId id) { return source.is_completed(id); };
    for (const OpToken token : abandoned) {
      auto [found, a] = in_flight.take(token);
      if (!found) continue;
      // Its straggling completion is discarded — but not as a zombie: the
      // holder is alive.
      dead_tokens.insert(token);
      evicted_tokens.insert(token);
      tel.spans.end(a.span, 0.0, "evicted");
      ev.emit(Kind::NodeEvicted, a.node, TaskId::invalid(), 0.0,
              "mid-chunk degradation");
      GRASP_LOG_INFO("farm") << "node " << a.node.value
                             << " evicted mid-chunk at t="
                             << backend.now().value;
      const auto entry = ledger.invalidate(token, already_done);
      if (entry) recover_checkpointed(*entry);
      requeue_pending(a.chunk, a.node);
      busy[a.node] = false;
      exec_monitor.arm(exec_monitor.baseline_spm(), elastic.workers(),
                       backend.now());
    }
    tel.spans.end(pass_span, static_cast<double>(updates.size()),
                  updates.empty() ? "idle" : "progress");
  };

  // ---- Farmer failover machinery (replicated-farmer runs) --------------
  // Undo one unflushed log record at promotion time: the state it
  // describes died with the old farmer before any standby received it.
  auto undo_record = [&](const resil::ReplicaLog::Record& r) {
    switch (r.kind) {
      case resil::ReplicaRecordKind::Checkpoint:
        // The partial state above prev_mark only ever reached the corpse.
        ledger.revert_checkpoint(r.token, r.prev_mark);
        break;
      case resil::ReplicaRecordKind::Complete:
        // Accepted results that were never replicated: retract the marks
        // and re-queue the tasks (front, reverse order, like any other
        // loss path) so they run again under the new farmer.
        for (auto it = r.tasks.rbegin(); it != r.tasks.rend(); ++it) {
          if (!it->id.is_valid() || !source.unmark_completed(it->id))
            continue;
          --report.tasks_completed;
          source.push_front(*it);
          ev.emit(Kind::TaskResultLost, r.node, it->id, it->work.value);
          ev.emit(Kind::ChunkRedispatched, r.node, it->id, 0.0, "failover");
        }
        if (finished && !source.all_done()) finished = false;
        break;
      case resil::ReplicaRecordKind::Assign:
      case resil::ReplicaRecordKind::Membership:
      case resil::ReplicaRecordKind::Baseline:
        // Re-learned on the reconnect handshake: live workers re-register
        // their in-flight chunks and the broadcast-heartbeat mirror
        // re-derives membership, so these records need no rollback.
        break;
    }
  };

  // Keep the standby set at strength while the farmer is alive: the
  // lowest-id live members outside the coordinator role receive a state
  // snapshot and start applying the log from its current end.
  auto snapshot_and_recruit = [&] {
    if (!failover_on || failover->farmer_down()) return;
    // Standbys that died during a past outage were kept registered so a
    // rejoin could resume; with the farmer alive again they are dead
    // weight and make room for live recruits.
    failover->prune_dead_standbys(live_member_now);
    while (failover->standby_deficit() > 0) {
      NodeId pick = NodeId::invalid();
      for (const NodeId n : detector->watched()) {
        if (n == farmer || failover->is_standby(n) || !live_member_now(n))
          continue;
        pick = n;
        break;
      }
      if (!pick.is_valid()) return;  // nobody to recruit right now
      const double snapshot_bytes = 256.0 + ledger.snapshot_bytes();
      failover->recruit(pick, snapshot_bytes);
      ev.emit(Kind::StandbyRecruited, pick, TaskId::invalid(),
              snapshot_bytes);
      GRASP_LOG_INFO("farm") << "standby " << pick.value
                             << " recruited at t=" << backend.now().value;
    }
  };
  // Per-tick failover pass; assigned below (it cancels the liveness tick
  // on the unrecoverable path, so it must see cancel_tick).
  std::function<void()> failover_step;

  auto arm_tick = [&] {
    if (!resil_on) return;
    tick_token = tokens.alloc();
    // Align ticks to the heartbeat grid: beats are credited at absolute
    // multiples of the period, so suspicion state only changes there — a
    // grid-aligned tick evaluates each beat boundary as soon as it passes,
    // keeping detection within timeout + heartbeat_period of the crash.
    const double period =
        1.0 * params_.resilience.detector.heartbeat_period.value;
    const double into = std::fmod(backend.now().value, period);
    backend.submit_timer(tick_token, Seconds{period - into});
  };
  auto cancel_tick = [&] {
    if (tick_token != 0) {
      backend.cancel_timer(tick_token);
      tick_token = 0;
    }
  };
  failover_step = [&] {
    if (!failover_on) return;
    const Seconds now = backend.now();
    if (!failover->farmer_down()) {
      if (!in_calibration && live_member_now(farmer)) {
        // Healthy farmer: ship the unflushed log suffix to every live
        // standby, piggybacked on this tick's heartbeat round, and keep
        // the standby set at strength.
        failover->account_flush(failover->log().flush(live_member_now));
        snapshot_and_recruit();
      }
      // Standby side: watch the farmer's own beats for silence.
      if (!failover->advance(now, [&](NodeId n, Seconds t) {
            return churn->is_member(n, t);
          }))
        return;
      if (failover_span == 0)
        failover_span = tel.spans.begin("failover", 0, farmer);
      ev.emit(Kind::FarmerCrashDetected, farmer, TaskId::invalid(), 0.0,
              "heartbeat timeout");
      GRASP_LOG_INFO("farm") << "farmer " << farmer.value
                             << " declared dead at t=" << now.value;
      declare_dead(farmer, "farmer silent");  // its worker-side chunks
    }
    // Promotion waits out an in-flight Algorithm 1 pass: the calibration
    // collective must land (or abandon the corpse) before the coordinator
    // role moves.  Detection above is never deferred, so the crash is
    // still declared within timeout + heartbeat_period.
    if (in_calibration) return;
    if (handshake_token != 0) return;  // reconnect handshake under way
    if (const auto s = failover->successor(live_member_now)) {
      // Deterministic promotion: lowest-id live standby wins.  Its
      // watermark divides history — roll back everything it never
      // received before it starts acting on the replicated state.
      promotion_waited = (now - failover->down_since()).value > 1e-9;
      pending_is_recovery = false;
      pending_farmer = *s;
      tel.spans.instant("rollback", failover_span, *s);
      failover->log().rollback_to(failover->log().watermark(*s),
                                  undo_record);
      handshake_span = tel.spans.begin("handshake", failover_span, *s);
      handshake_token = tokens.alloc();
      // The reconnect window scales with the membership the successor must
      // re-establish channels with (flat when handshake_per_worker is 0).
      backend.submit_timer(handshake_token,
                           failover->handshake_cost(detector->watched().size()));
    } else if (live_member_now(farmer)) {
      // No standby reachable but the old farmer rejoined: it resumes with
      // its own intact state (nothing to roll back), paying the same
      // reconnect handshake.
      promotion_waited = true;
      pending_is_recovery = true;
      pending_farmer = farmer;
      handshake_span = tel.spans.begin("handshake", failover_span, farmer);
      handshake_token = tokens.alloc();
      backend.submit_timer(handshake_token,
                           failover->handshake_cost(detector->watched().size()));
    } else if ((now - failover->down_since()) > kFailoverPatience) {
      cancel_tick();
      throw std::runtime_error(
          "TaskFarm: farmer lost with no standby, rejoin or recruit within "
          "failover patience");
    }
  };
  handle_tick = [&] {
    tick_token = 0;
    consume_membership(backend.now());
    // SLO probes ride the liveness tick: same cadence as the failure
    // detector, no timers of their own.  (Ticks only exist on resilient
    // runs, so `detector` is always engaged here.)
    if (watchdog) {
      const double now_s = backend.now().value;
      if (watchdog->rules().heartbeat_staleness_s > 0.0)
        for (const NodeId n : detector->watched())
          watchdog->check_heartbeat(n, now_s,
                                    detector->last_heartbeat(n).value);
      watchdog->check_wasted_rate(now_s, ledger.wasted_mops(),
                                  now_s - run_started.value);
      if (in_calibration)
        watchdog->check_calibration_stall(now_s, calibration_opened_s);
    }
    // Every ckpt_every-th beat carries the piggybacked progress reports —
    // unless the farm is farmerless, in which case nobody collects them.
    if (ckpt_on && ++ticks_seen % ckpt_every == 0 && !farmer_down())
      take_checkpoints();
    failover_step();
    arm_tick();
  };

  auto dispatch_to_idle = [&] {
    // A farmerless farm dispatches nothing: work resumes when the
    // reconnect handshake of the promoted coordinator closes.
    if (failover_on && (failover->farmer_down() || handshake_token != 0))
      return;
    // Copy only on churn runs, where declare_dead (via the liveness check)
    // can mutate the worker set mid-loop; churn-free passes iterate the
    // pool's own vector and never allocate.
    std::vector<NodeId> workers_copy;
    if (resil_on) workers_copy = elastic.workers();
    const std::vector<NodeId>& workers =
        resil_on ? workers_copy : elastic.workers();
    for (const NodeId n : workers) {
      if (source.empty()) break;
      if (busy[n]) continue;
      // Dispatch-time liveness check: opening the connection to a dead
      // node fails fast, so the farmer learns of the crash here even
      // before the heartbeat timeout.
      if (resil_on && !churn->is_member(n, backend.now())) {
        declare_dead(n, "dispatch failed");
        continue;
      }
      const std::size_t want = chunk_for(n);
      std::vector<workloads::TaskSpec> chunk;
      while (chunk.size() < want && !source.empty())
        chunk.push_back(source.pop());
      if (!chunk.empty()) queue_chunk(n, std::move(chunk), false);
    }
    // Fast-path calibration probes for newcomers in probation.
    if (resil_on) {
      const std::vector<NodeId> probationers = elastic.probationers();
      for (const NodeId n : probationers) {
        if (source.empty()) break;
        if (busy[n]) continue;
        if (!churn->is_member(n, backend.now())) {
          declare_dead(n, "dispatch failed");
          continue;
        }
        std::vector<workloads::TaskSpec> chunk;
        while (chunk.size() < kProbeTasks &&
               !source.empty())
          chunk.push_back(source.pop());
        if (!chunk.empty())
          queue_chunk(n, std::move(chunk), false, /*is_probe=*/true);
      }
    }
    // One batched submission for the whole round's transfers.
    flush_dispatches();
  };

  // Straggler scan: when the queue is dry, duplicate late chunks onto idle
  // chosen workers (first completion wins).
  auto maybe_reissue = [&] {
    if (failover_on && (failover->farmer_down() || handshake_token != 0))
      return;
    if (!params_.reissue_stragglers || !source.empty()) return;
    if ((traits_.actions & kActionReissueTask) == 0) return;
    // Idle chosen workers, fastest first.
    std::vector<NodeId> idle;
    for (const NodeId n : elastic.workers())
      if (!busy[n]) idle.push_back(n);
    std::sort(idle.begin(), idle.end(), [&](NodeId a, NodeId b) {
      return spm_estimate(a) < spm_estimate(b);
    });
    // Idle probationers ride along behind the chosen workers: a duplicated
    // straggler chunk doubles as their admission probe (first completion
    // wins either way), so a node that joins after the queue ran dry can
    // still be admitted and absorb the tail.
    std::size_t probation_targets = 0;
    if (resil_on) {
      for (const NodeId n : elastic.probationers()) {
        if (!busy[n] && churn->is_member(n, backend.now())) {
          idle.push_back(n);
          ++probation_targets;
        }
      }
    }
    if (idle.empty()) return;
    // Collect candidates first: queue_chunk inserts into in_flight and
    // would invalidate the iteration otherwise.  Latest expected finish
    // first, so the fastest idle node relieves the worst chunk.
    struct Candidate {
      OpToken token;
      double expected_finish;  ///< dispatched + expected, on its holder
      bool straggler;
    };
    const double now_s = backend.now().value;
    std::vector<Candidate> candidates;
    for (const auto& [token, a] : in_flight) {
      if (a.is_reissue || a.duplicated) continue;
      // Expected service time on the holder: its calibration/EWMA estimate.
      const double expected =
          spm_estimate(a.node) * a.work().value + 1.0;  // +1 s transfer
      const double age = now_s - a.dispatched.value;
      candidates.push_back({token, a.dispatched.value + expected,
                            age > params_.straggler_factor * expected});
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& x, const Candidate& y) {
                if (x.expected_finish != y.expected_finish)
                  return x.expected_finish > y.expected_finish;
                return x.token < y.token;
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
      Assignment& a = *in_flight.find(c.token);
      const double idle_cost = spm_estimate(target) * a.work().value + 1.0;
      const bool tail_steal =
          c.expected_finish > now_s + params_.tail_steal_margin * idle_cost;
      if (!c.straggler && !tail_steal) continue;
      // Only the un-checkpointed, un-completed suffix needs a twin: the
      // checkpointed prefix is salvageable from the farmer's copy even if
      // the holder dies, so duplicating it would buy nothing.
      std::size_t skip = 0;
      if (ckpt_on && ledger.tracks(c.token))
        skip = ledger.checkpointed(c.token);
      std::vector<workloads::TaskSpec> pending;
      for (std::size_t i = skip; i < a.chunk.size(); ++i)
        if (!source.is_completed(a.chunk[i].id)) pending.push_back(a.chunk[i]);
      if (pending.empty()) continue;
      a.duplicated = true;
      const bool as_probe = next_idle >= idle.size() - probation_targets;
      ++next_idle;
      ++report.reissues;
      GRASP_LOG_INFO("farm") << "reissuing " << pending.size()
                             << " tasks from " << a.node.value << " to "
                             << target.value
                             << (as_probe ? " (probation probe)" : "");
      queue_chunk(target, std::move(pending), true, as_probe);
    }
    // One batched submission for the round's reissue twins, like
    // dispatch_to_idle's waves.
    flush_dispatches();
  };

  // Shared completion handling for the main loop and the drains.  Drives
  // the input -> compute -> output state machine and, on churn grids, the
  // zombie test: a completion whose dispatch-to-finish window straddles a
  // crash of its node never really happened.
  auto process_completion = [&](const Completion& c) {
    if (swallow_dead_token(c.token)) return;
    auto [found, a] = in_flight.take(c.token);
    if (!found)
      throw std::logic_error("TaskFarm: unknown completion token");

    if (churn != nullptr &&
        churn->crashed_during(a.node, a.dispatched, backend.now())) {
      // Zombie chunk observed before the detector fired: the work is lost;
      // re-queue it here, exactly once (the ledger entry dies with it).
      met.inc(rm.zombie_completions);
      tel.spans.end(a.span, 0.0, "zombie");
      if (flight != nullptr)
        flight->note(backend.now().value, "chunk", "zombie", a.node,
                     a.work().value);
      if (resil_on) {
        const auto entry = ledger.invalidate(
            c.token, [&](TaskId id) { return source.is_completed(id); });
        if (entry) recover_checkpointed(*entry);
      } else {
        met.inc(rm.chunks_lost);
        met.add(rm.wasted_mops, a.work().value);
      }
      requeue_pending(a.chunk, a.node);
      if (a.is_reissue) {
        // The lost chunk was itself a twin: let its original be duplicated
        // again rather than grinding out the full duration unrelieved.
        for (auto& [token, other] : in_flight) {
          (void)token;
          other.duplicated = false;
        }
      }
      if (resil_on && !tracker->is_member(a.node))
        declare_dead(a.node, "connection lost");
      else
        busy[a.node] = false;
      return;
    }

    switch (a.phase) {
      case Assignment::Phase::Input: {
        a.phase = Assignment::Phase::Compute;
        a.compute_started = backend.now();
        const OpToken token = tokens.alloc();
        backend.submit_compute(token, a.node, a.work(),
                                make_chunk_body(a.chunk));
        if (resil_on) ledger.rekey(c.token, token);
        if (failover_on) failover->log().retarget(c.token, token);
        in_flight.emplace(token, std::move(a));
        break;
      }
      case Assignment::Phase::Compute: {
        a.phase = Assignment::Phase::Output;
        Bytes output = Bytes::zero();
        for (const auto& t : a.chunk) output += t.output;
        const OpToken token = tokens.alloc();
        backend.submit_transfer(token, a.node, farmer, output);
        if (resil_on) ledger.rekey(c.token, token);
        if (failover_on) failover->log().retarget(c.token, token);
        in_flight.emplace(token, std::move(a));
        break;
      }
      case Assignment::Phase::Output: {
        if (resil_on) ledger.complete(c.token);
        const double elapsed = (backend.now() - a.dispatched).value;
        met.observe(h_service, elapsed);
        tel.spans.end(a.span, elapsed, "complete");
        const double spm = elapsed / std::max(1e-9, a.work().value);
        // Blend the observation into the node estimate (EWMA, alpha 0.5).
        double& estimate = node_spm[a.node];
        estimate = estimate > 0.0 ? 0.5 * estimate + 0.5 * spm : spm;
        busy[a.node] = false;
        std::vector<workloads::TaskSpec> marked;
        for (const auto& t : a.chunk) {
          if (source.mark_completed(t.id)) {
            ++report.tasks_completed;
            if (failover_on) marked.push_back(t);
            ev.emit(Kind::TaskCompleted, a.node, t.id, elapsed);
          }
        }
        if (!marked.empty()) {
          // The accepted results become authoritative farmer state the
          // next tick's flush replicates; until then they are exactly what
          // a promotion must roll back.
          double result_bytes = 0.0;
          for (const auto& t : marked) result_bytes += t.output.value;
          failover->log().append({resil::ReplicaRecordKind::Complete,
                                  c.token, a.node, 0, 0, result_bytes,
                                  std::move(marked)});
        }
        if (a.is_probe) {
          // Fast-path calibration verdict for a newcomer.
          const bool admitted = elastic.admit(
              a.node, spm, std::max(1e-9, exec_monitor.baseline_spm()));
          if (admitted) {
            ev.emit(Kind::NodeAdmitted, a.node, TaskId::invalid(), spm);
            exec_monitor.arm(exec_monitor.baseline_spm(), elastic.workers(),
                             backend.now());
            GRASP_LOG_INFO("farm")
                << "node " << a.node.value << " admitted (probe spm=" << spm
                << ")";
          }
        } else {
          exec_monitor.observe(a.node, spm, backend.now());
          if (resil_on &&
              elastic.observe(a.node, spm, exec_monitor.baseline_spm())) {
            ev.emit(Kind::NodeEvicted, a.node, TaskId::invalid(), spm,
                    "persistent degradation");
            exec_monitor.arm(exec_monitor.baseline_spm(), elastic.workers(),
                             backend.now());
          }
        }
        if (!finished && source.all_done()) {
          finished = true;
          finish_time = backend.now();
        }
        break;
      }
    }
  };

  // Close a reconnect handshake: either commit the promotion (the new
  // farmer takes the endpoints, parked completions re-deliver, the standby
  // set is replenished) or abandon it because the successor died
  // mid-handshake (the next tick re-runs the successor rule).
  auto finish_handshake = [&] {
    handshake_token = 0;
    const Seconds now = backend.now();
    const NodeId chosen = std::exchange(pending_farmer, NodeId::invalid());
    if (!live_member_now(chosen)) {
      // Crash during promotion.  The registry keeps the corpse — it may
      // rejoin and resume from its watermark.
      tel.spans.end(handshake_span, 0.0, "successor died");
      handshake_span = 0;
      ev.emit(Kind::FarmerCrashDetected, chosen, TaskId::invalid(), 0.0,
              "died during promotion");
      GRASP_LOG_INFO("farm") << "successor " << chosen.value
                             << " died during promotion at t=" << now.value;
      return;
    }
    if (pending_is_recovery)
      failover->farmer_recovered(now);
    else
      failover->complete_promotion(chosen, now);
    const double promotion_latency = (now - failover->down_since()).value;
    met.observe(h_promote, promotion_latency);
    tel.spans.end(handshake_span, 0.0, "committed");
    handshake_span = 0;
    tel.spans.end(failover_span, promotion_latency,
                  pending_is_recovery ? "recovered" : "promoted");
    failover_span = 0;
    farmer = chosen;
    ev.emit(Kind::FarmerPromoted, farmer, TaskId::invalid(),
            promotion_latency,
            pending_is_recovery ? "self-recovery"
            : promotion_waited  ? "waited"
                                : "prompt");
    GRASP_LOG_INFO("farm") << "farmer promoted: node " << farmer.value
                           << " at t=" << now.value;
    // Re-root the support daemons on the new coordinator.
    monitor.reroot(farmer);
    cal_params.root = farmer;
    calibrator = Calibrator(traits_, cal_params);
    // Workers reconnect and re-deliver the results that raced the outage;
    // the zombie test inside judges each against the full window, so a
    // holder that died while parked is still caught.
    for (const Completion& parked_c : std::exchange(parked, {}))
      process_completion(parked_c);
    snapshot_and_recruit();
    if (params_.resilience.recalibrate_on_crash) pending_recalibration = true;
  };

  // Drain live operations.  Chunks surrendered to crash recovery are
  // deliberately left pending: their zombie completions sit in the backend
  // until (long-)after the node's outage, and waiting for them would stall
  // the whole farm on a corpse.
  auto drain = [&] {
    while (backend.in_flight() > dead_tokens.size()) {
      const auto c = backend.wait_next();
      if (!c) break;
      if (!finished) monitor.advance_to(backend.now());
      if (c->is_timer) {
        if (is_tick(c->token)) handle_tick();
        continue;
      }
      consume_membership(backend.now());
      if (farmer_down())
        parked.push_back(*c);
      else
        process_completion(*c);
    }
  };

  auto recalibrate = [&] {
    ++recalibrations;
    ev.emit(Kind::RecalibrationTriggered, farmer, TaskId::invalid(),
            static_cast<double>(recalibrations));
    GRASP_LOG_INFO("farm") << "recalibration #" << recalibrations << " at t="
                           << backend.now().value;
    // Resilient runs calibrate concurrently with execution (in-flight
    // chunks keep flowing through absorb_engine_completion); the classic
    // path drains first, as the original Algorithm 2 loop did.
    if (!resil_on) drain();
    if (source.all_done()) return;
    if (source.empty()) return;  // nothing left to schedule differently
    const std::vector<NodeId> previous = elastic.workers();
    std::vector<NodeId> recal_pool = farmer_live_view();
    if (resil_on) {
      // Drop nodes that are provably gone right now (a calibration probe to
      // a dead node would fail at connection time, not stall forever).
      std::vector<NodeId> alive;
      for (const NodeId n : recal_pool)
        if (churn->is_member(n, backend.now())) alive.push_back(n);
        else declare_dead(n, "dispatch failed");
      recal_pool = std::move(alive);
    }
    if (recal_pool.empty()) return;
    // Entries queued while no calibration was listening are stale: every
    // node they name is already outside recal_pool (or back in it after a
    // rejoin, in which case its fresh samples must not be abandoned).
    newly_dead.clear();
    in_calibration = true;
    calibration_opened_s = backend.now().value;
    const obs::SpanId recal_span = tel.spans.begin("calibration");
    CalibrationResult recal = calibrator.run(backend, recal_pool, source,
                                             &monitor, &ev, tokens, &foreign);
    tel.spans.end(recal_span, static_cast<double>(recal.tasks_consumed),
                  "recalibration");
    in_calibration = false;
    calibration_opened_s = -1.0;
    report.calibration_tasks += recal.tasks_consumed;
    if (!finished && source.all_done()) {
      finished = true;
      finish_time = backend.now();
    }
    if (recal.chosen.empty()) return;  // every probed node died; keep the set
    for (const auto& s : recal.ranking) node_spm[s.node] = s.adjusted_spm;
    elastic.reset(recal.chosen);
    exec_monitor.arm(recal.baseline_spm, recal.chosen, backend.now());
    replicate_baseline();
    report.final_baseline_spm = recal.baseline_spm;
    for (const NodeId n : recal.chosen) {
      if (std::find(previous.begin(), previous.end(), n) == previous.end())
        ev.emit(Kind::NodeSwapped, n, TaskId::invalid(), 1.0, "joined");
    }
  };

  report.final_baseline_spm = calibration.baseline_spm;
  membership_hook = consume_membership;
  absorb_engine_completion = [&](OpToken token) {
    if (in_flight.find(token) == nullptr) return false;
    Completion c;
    c.token = token;
    if (farmer_down())
      parked.push_back(c);
    else
      process_completion(c);
    return true;
  };
  consume_membership(backend.now());
  snapshot_and_recruit();  // initial standbys shadow from t=0 of execution
  arm_tick();

  // ---- Phase: execution (Algorithm 2 loop) ----------------------------
  while (!source.all_done()) {
    dispatch_to_idle();
    maybe_reissue();
    const auto completion = backend.wait_next();
    if (!completion) {
      if (!source.all_done())
        throw std::logic_error("TaskFarm: deadlock — tasks remain but "
                               "nothing in flight (all workers lost?)");
      break;
    }
    monitor.advance_to(backend.now());
    if (completion->is_timer) {
      if (is_tick(completion->token)) handle_tick();
      else if (is_handshake(completion->token)) finish_handshake();
      // A tick with no real work in flight and nobody left to dispatch to
      // is the dead end the nullopt branch reports on tick-free runs;
      // without this check the farm would re-arm and spin forever.  A
      // farmerless farm is exempt: promotion (or the failover patience
      // bound) decides its fate.
      if (!source.all_done() && backend.in_flight() == 0 &&
          elastic.workers().empty() && elastic.probationers().empty() &&
          !farmer_down()) {
        cancel_tick();
        throw std::logic_error("TaskFarm: deadlock — tasks remain but "
                               "nothing in flight (all workers lost?)");
      }
    } else {
      consume_membership(backend.now());
      if (farmer_down()) {
        // The completion's destination is a corpse: the worker parks its
        // result and re-delivers it after the reconnect handshake.
        parked.push_back(*completion);
      } else {
        process_completion(*completion);
        // The adaptation threshold is judged on work observations only;
        // ticks exist for liveness and must not perturb Algorithm 2's
        // cadence.
        if (params_.adaptation_enabled && !source.all_done() &&
            recalibrations < kMaxRecalibrations) {
          const MonitorVerdict verdict = exec_monitor.check(backend.now());
          if (verdict != MonitorVerdict::None) pending_recalibration = true;
        }
      }
    }
    // A recalibration is a collective rooted at the farmer: opening it
    // against a dead coordinator fails at connection time, so the verdict
    // stays pending until the promoted farmer can host the pass.
    if (pending_recalibration &&
        !(failover_on &&
          (failover->farmer_down() || !live_member_now(farmer)))) {
      pending_recalibration = false;
      if (params_.adaptation_enabled && !source.all_done() &&
          recalibrations < kMaxRecalibrations)
        recalibrate();
    }
  }

  cancel_tick();  // liveness no longer matters once every task is done
  if (handshake_token != 0) {  // a promotion the finished run no longer needs
    backend.cancel_timer(handshake_token);
    handshake_token = 0;
  }
  if (!finished) finish_time = backend.now();
  report.monitor_samples = monitor.samples_taken();
  drain();  // late duplicates / abandoned twins / zombies, off the clock

  report.makespan = finish_time;
  report.recalibrations = recalibrations;
  report.rounds = exec_monitor.rounds_completed();
  report.final_chosen = elastic.workers();
  // Report fields that count one event kind are read off the trace.
  report.chunk_resizes = report.trace.count(Kind::ChunkResized);
  // Add the component-owned totals of this run to the registry (nothing
  // else writes these slots during a resilient run), then read the whole
  // resilience report back out as a snapshot delta: registry and report
  // cannot disagree.
  if (resil_on) {
    met.inc(rm.admissions, elastic.admissions());
    met.inc(rm.rejections, elastic.rejections());
    met.inc(rm.evictions, elastic.evictions());
    met.inc(rm.chunks_lost, ledger.chunks_lost());
    met.add(rm.wasted_mops, ledger.wasted_mops());
    met.inc(rm.checkpoints, ledger.checkpoints());
    met.inc(rm.tasks_recovered, ledger.tasks_recovered());
    met.add(rm.recovered_mops, ledger.recovered_mops());
    met.add(rm.checkpoint_state_bytes, ledger.checkpoint_state_bytes());
  }
  if (failover_on) {
    met.inc(rm.failovers, failover->failovers());
    met.add(rm.failover_latency_s, failover->failover_latency_s());
    met.inc(rm.standby_recruits, failover->recruits());
    met.inc(rm.replication_records, failover->replication_records());
    met.add(rm.replication_bytes, failover->replication_bytes());
    met.add(rm.handshake_cost_s, failover->handshake_cost_s());
  }
  report.resilience = resil::from_snapshot(met.snapshot().diff(base_snap));
  // Mirror the farm-level scalars so the registry carries the full run
  // summary too (absolute values of the latest run; RunSummary reads the
  // resilience block, dashboards read these).
  met.set_counter(met.counter("farm.tasks_completed"),
                  report.tasks_completed);
  met.set_counter(met.counter("farm.calibration_tasks"),
                  report.calibration_tasks);
  met.set_counter(met.counter("farm.recalibrations"), report.recalibrations);
  met.set_counter(met.counter("farm.reissues"), report.reissues);
  met.set_counter(met.counter("farm.chunk_resizes"), report.chunk_resizes);
  met.set_counter(met.counter("farm.monitor_samples"),
                  report.monitor_samples);
  met.set_counter(met.counter("farm.rounds"), report.rounds);
  met.set(met.gauge("farm.makespan_s"), report.makespan.value);
  // Post-run causal diagnosis: blame the makespan on its causes and
  // publish the top-level fractions as obs.blame.* gauges next to the
  // farm scalars.  Needs spans, so it follows the detail tier.
  if (met.enabled() && !tel.spans.records().empty())
    obs::publish_blame(
        obs::analyze_blame(tel.spans.records(), finish_time.value), met);
  if (flight != nullptr)
    flight->note(finish_time.value, "run", "farm_end", farmer,
                 static_cast<double>(report.tasks_completed));
  return report;
}

}  // namespace grasp::core
