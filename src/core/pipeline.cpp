#include "core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "obs/critical_path.hpp"
#include "obs/emit.hpp"
#include "obs/flight_recorder.hpp"
#include "resil/membership.hpp"
#include "support/flat_map.hpp"
#include "support/log.hpp"
#include "support/stats.hpp"
#include "svc/grid_service.hpp"

namespace grasp::core {
namespace {

/// Remaps allowed per run.
constexpr std::size_t kMaxRemaps = 16;
/// Stage state shipped old -> new node on remap (and to seed a replica).
constexpr Bytes kStageStateBytes{1e6};
/// How long a pipeline with a down stage (no spare) and nothing at all in
/// flight keeps ticking while waiting for a joiner before declaring the run
/// wedged, measured from the last completion or membership event.
constexpr Seconds kDownStagePatience{1e4};

}  // namespace

Pipeline::Pipeline(PipelineParams params)
    : params_(std::move(params)), traits_(pipeline_traits()) {
  if (params_.source_window == 0)
    throw std::invalid_argument("Pipeline: source_window must be positive");
  if (params_.remap_advantage < 1.0)
    throw std::invalid_argument("Pipeline: remap_advantage must be >= 1");
  if (params_.replicate_imbalance_factor < 0.0)
    throw std::invalid_argument(
        "Pipeline: replicate_imbalance_factor must be >= 0");
}

namespace {

enum class OpKind { StageIn, StageCompute, SinkOut, Migration };

struct PendingOp {
  OpKind kind;
  std::size_t stage = 0;
  std::size_t replica = 0;
  std::uint64_t item = 0;
};

struct ItemState {
  NodeId location;  ///< node currently holding the item's data
  Seconds entered;  ///< when its first transfer was submitted
};

/// One node executing (a share of) a stage.
struct Replica {
  NodeId node;
  std::optional<std::uint64_t> receiving;
  std::deque<std::uint64_t> received;  ///< shipped in, awaiting compute
  std::optional<std::uint64_t> computing;
  bool migrating = false;  ///< remap or replica-seeding transfer in flight
  bool down = false;       ///< node lost, no spare yet; waiting for a join
  double latest_spm = 0.0;

  [[nodiscard]] bool quiescent() const {
    return !receiving && !computing && !migrating;
  }
};

struct StageState {
  std::vector<Replica> replicas;
  std::deque<std::uint64_t> waiting;  ///< items ready to be shipped here
  std::optional<NodeId> pending_remap;
  std::size_t pending_remap_replica = 0;
  // Exit resequencing: a replicated stage can finish items out of order;
  // emission is held until the next id in sequence is ready.
  std::uint64_t next_expected = 0;
  std::map<std::uint64_t, bool> done_buffer;
  // statistics
  std::size_t items_done = 0;
  double busy_seconds = 0.0;
  double service_sum = 0.0;
  Ewma service_ewma{0.3};
  std::size_t items_since_structural = 0;
};

}  // namespace

PipelineReport Pipeline::run(Backend& backend, const gridsim::Grid& grid,
                             const std::vector<NodeId>& pool,
                             const workloads::PipelineSpec& spec,
                             std::size_t item_count) {
  // See TaskFarm::run — single-tenant service, inline fast path.
  svc::GridService::Params service_params;
  service_params.use_calibration_cache = false;
  svc::GridService service(backend, grid, pool, service_params);
  const svc::JobHandle handle =
      service.submit(svc::PipelineJob{params_, spec, item_count});
  service.wait(handle);
  return handle.pipeline_report();
}

PipelineReport Pipeline::run_engine(Backend& backend,
                                    const gridsim::Grid& grid,
                                    const std::vector<NodeId>& pool,
                                    const workloads::PipelineSpec& spec,
                                    std::size_t item_count) {
  const std::size_t depth = spec.depth();
  if (depth == 0) throw std::invalid_argument("Pipeline: empty spec");
  if (item_count == 0)
    throw std::invalid_argument("Pipeline: item_count must be positive");
  if (!params_.stage_replicas.empty() &&
      params_.stage_replicas.size() != depth)
    throw std::invalid_argument(
        "Pipeline: stage_replicas must match the stage count");
  std::size_t initial_nodes = 0;
  for (std::size_t s = 0; s < depth; ++s) {
    const std::size_t r = params_.stage_replicas.empty()
                              ? 1
                              : std::max<std::size_t>(
                                    1, params_.stage_replicas[s]);
    initial_nodes += r;
  }

  // Membership: map stages over the nodes present at t=0; absent nodes
  // (late joiners) arrive through the tracker as spares.
  const gridsim::ChurnTimeline* churn = grid.churn();
  const std::vector<NodeId> present =
      churn ? churn->members_at(pool, backend.now()) : pool;
  if (present.size() < initial_nodes)
    throw std::invalid_argument("Pipeline: pool smaller than total replicas");

  const NodeId source =
      params_.source_node.is_valid() ? params_.source_node : present.front();
  std::optional<resil::MembershipTracker> tracker;
  if (churn != nullptr) tracker.emplace(*churn, pool);

  PipelineReport report;
  TokenAllocator tokens;

  // ---- Observability.  Without a caller-supplied Telemetry the run uses
  // a private detail-disabled instance: counters still drive the report
  // (the report is a registry snapshot), histograms/spans are skipped.
  obs::Telemetry private_telemetry(/*detail=*/false);
  obs::Telemetry& tel =
      params_.telemetry != nullptr ? *params_.telemetry : private_telemetry;
  obs::MetricsRegistry& met = tel.metrics;
  const BackendClock obs_clock(backend);
  struct ClockGuard {
    obs::Telemetry& tel;
    ~ClockGuard() { tel.set_clock(nullptr); }
  } clock_guard{tel};
  tel.set_clock(&obs_clock);
  const resil::ResilienceMetrics rm = resil::ResilienceMetrics::register_in(met);
  // The one emission point for engine events (see obs/emit.hpp).
  obs::Emitter ev(obs_clock, report.trace, tel.spans, tel.flight, &met, &rm);
  using Kind = gridsim::TraceEventKind;
  // Whole-registry pre-run baseline: the report delta is one generic
  // subtraction, decoded by metric name (resil::from_snapshot).
  const obs::MetricsSnapshot base_snap = met.snapshot();
  const obs::HistogramHandle h_item_latency =
      met.histogram("pipeline.item_latency_seconds", {1e-3, 2.0, 48});
  // Crash flight recorder.
  obs::FlightRecorder* const flight = tel.flight;
  if (flight != nullptr)
    flight->note(backend.now().value, "run", "pipeline_begin", source,
                 static_cast<double>(item_count));

  perfmon::MonitorDaemon::Params mon_params = params_.monitor;
  mon_params.root = source;
  perfmon::MonitorDaemon monitor(grid, present, mon_params);
  monitor.attach_metrics(&met);
  // Nodes the monitor watches; extended when late joiners appear so the
  // load forecasts estimate_spm needs exist for every candidate spare.
  std::vector<NodeId> observed = present;

  // ---- Calibration: probe every present node with stage-shaped work. ---
  workloads::TaskSet probes;
  probes.name = "pipeline-probes";
  const double mean_stage_work =
      spec.work_per_item().value / static_cast<double>(depth);
  for (std::size_t i = 0; i < present.size(); ++i) {
    workloads::TaskSpec t;
    t.id = TaskId{i};
    t.work = Mops{mean_stage_work};
    t.input = spec.source_bytes;
    t.output = spec.stages.back().output_bytes;
    probes.tasks.push_back(t);
  }
  TaskSource probe_source(probes);
  CalibrationParams cal_params = params_.calibration;
  if (!cal_params.root.is_valid()) cal_params.root = source;
  cal_params.select_fraction = 1.0;  // rank everyone; mapping picks below
  cal_params.exclusion_ratio = 0.0;
  Calibrator calibrator(traits_, cal_params);

  // Tokens of operations killed by a node loss; their completions are
  // swallowed when the backend delivers them.  Declared before calibration:
  // a node dying mid-probe surrenders its stalled sample ops here.
  std::unordered_set<OpToken> dead_tokens;
  // Nodes currently lost to the pool (cleared on rejoin): guards the loss
  // counters against double counting when e.g. a migration target dies
  // mid-transit and the loss is noticed twice.
  std::unordered_set<std::uint64_t> lost_nodes;
  // Last completion or membership event: the reference point for the
  // down-stage patience window while the liveness tick idles.
  Seconds last_activity = backend.now();

  // ForeignOps for the *initial* calibration, so the t=0 stage mapping
  // tolerates a pool that is already churning: losses crossed mid-probe
  // feed the calibrator's abandon hook (the corpse drops out of the
  // ranking instead of stalling the probe chain for the whole outage), and
  // joiners are parked until the mapping exists, then admitted as spares.
  std::vector<NodeId> newly_dead_cal;
  std::vector<NodeId> joined_during_cal;
  ForeignOps cal_foreign;
  cal_foreign.pending = [&] { return dead_tokens.size(); };
  cal_foreign.swallow = [&](OpToken token) {
    if (dead_tokens.erase(token) > 0) {
      met.inc(rm.zombie_completions);
      return true;
    }
    return false;
  };
  cal_foreign.dead_nodes = [&](Seconds at) {
    if (tracker) {
      for (const auto& e : tracker->poll(at)) {
        switch (e.kind) {
          case gridsim::ChurnEventKind::Crash:
          case gridsim::ChurnEventKind::Leave: {
            const bool crashed = e.kind == gridsim::ChurnEventKind::Crash;
            if (lost_nodes.insert(e.node.value).second)
              ev.emit(crashed ? Kind::NodeCrashDetected : Kind::NodeLeftPool,
                      e.node, TaskId::invalid(), 0.0, "calibration");
            newly_dead_cal.push_back(e.node);
            // A joiner dying before the mapping exists must not be parked
            // for admission — its crash event is consumed here and would
            // never be re-reported to the main loop.
            joined_during_cal.erase(std::remove(joined_during_cal.begin(),
                                                joined_during_cal.end(),
                                                e.node),
                                    joined_during_cal.end());
            break;
          }
          case gridsim::ChurnEventKind::Join:
          case gridsim::ChurnEventKind::Rejoin:
            if (std::find(joined_during_cal.begin(), joined_during_cal.end(),
                          e.node) == joined_during_cal.end())
              joined_during_cal.push_back(e.node);
            lost_nodes.erase(e.node.value);  // rejoined mid-calibration
            break;
        }
      }
    }
    return std::exchange(newly_dead_cal, {});
  };
  cal_foreign.surrender = [&](OpToken token, NodeId, const workloads::TaskSpec&,
                              bool) { dead_tokens.insert(token); };

  const obs::SpanId cal_span = tel.spans.begin("calibration");
  const CalibrationResult calibration =
      calibrator.run(backend, present, probe_source, &monitor, &ev, tokens,
                     &cal_foreign);
  tel.spans.end(cal_span, static_cast<double>(calibration.tasks_consumed),
                "initial");
  if (calibration.ranking.size() < initial_nodes)
    throw std::runtime_error(
        "Pipeline: pool shrank below the replica count during calibration");

  std::unordered_map<NodeId, double> cal_spm, cal_load;
  double spm_sum = 0.0;
  for (const auto& s : calibration.ranking) {
    cal_spm[s.node] = std::max(1e-9, s.adjusted_spm);
    cal_load[s.node] = s.observed_load;
    spm_sum += cal_spm[s.node];
  }
  // Fallback fitness for nodes that joined after calibration (no sample
  // yet): the pool mean, neither favoured nor penalised.
  const double fallback_spm =
      spm_sum / static_cast<double>(calibration.ranking.size());
  auto known_spm = [&](NodeId n) {
    const auto it = cal_spm.find(n);
    return it != cal_spm.end() ? it->second : fallback_spm;
  };

  // Extrapolate a node's current fitness from calibration fitness and the
  // forecast load via the processor-sharing rule (spm scales with load+1).
  auto estimate_spm = [&](NodeId n) {
    const double forecast = monitor.forecast_load(n);
    const auto load_it = cal_load.find(n);
    const double at_cal = load_it != cal_load.end() ? load_it->second : 0.0;
    return known_spm(n) * (forecast + 1.0) / (at_cal + 1.0);
  };

  // ---- Initial mapping: heaviest stage -> fittest nodes. ---------------
  std::vector<std::size_t> stage_order(depth);
  for (std::size_t s = 0; s < depth; ++s) stage_order[s] = s;
  std::sort(stage_order.begin(), stage_order.end(),
            [&](std::size_t a, std::size_t b) {
              return spec.stages[a].work_per_item >
                     spec.stages[b].work_per_item;
            });
  std::vector<StageState> stages(depth);
  std::deque<NodeId> spares;
  {
    std::size_t next = 0;
    for (const std::size_t s : stage_order) {
      const std::size_t want = params_.stage_replicas.empty()
                                   ? 1
                                   : std::max<std::size_t>(
                                         1, params_.stage_replicas[s]);
      for (std::size_t r = 0; r < want; ++r) {
        Replica rep;
        rep.node = calibration.ranking[next++].node;
        stages[s].replicas.push_back(std::move(rep));
      }
    }
    for (; next < calibration.ranking.size(); ++next)
      spares.push_back(calibration.ranking[next].node);
  }

  ExecutionMonitor exec_monitor(traits_, params_.threshold);
  auto arm_monitor = [&] {
    std::vector<NodeId> mapped;
    OnlineStats base;
    for (const auto& st : stages) {
      for (const auto& rep : st.replicas) {
        if (rep.down) continue;
        if (std::find(mapped.begin(), mapped.end(), rep.node) == mapped.end())
          mapped.push_back(rep.node);
        base.add(known_spm(rep.node));
      }
    }
    exec_monitor.arm(base.mean(), mapped, backend.now());
  };
  arm_monitor();

  // ---- Streaming state. -------------------------------------------------
  // FlatMaps (support/flat_map.hpp): O(1) find and erase with lazy
  // compaction, no per-element allocation, and iteration in order of last
  // insertion — the deterministic order the loss-handling sweeps below rely
  // on.
  FlatMap<std::uint64_t, ItemState> items;
  FlatMap<OpToken, PendingOp> ops;
  auto item_at = [&](std::uint64_t id) -> ItemState& {
    ItemState* state = items.find(id);
    if (state == nullptr)
      throw std::logic_error("Pipeline: unknown item id");
    return *state;
  };
  std::uint64_t injected = 0;
  std::vector<double> latencies;
  std::vector<std::uint64_t> emission_order;  // delivered order at the sink
  latencies.reserve(item_count);
  Seconds last_done = Seconds::zero();

  auto bytes_into = [&](std::size_t s) {
    return s == 0 ? spec.source_bytes : spec.stages[s - 1].output_bytes;
  };

  // ---- Membership machinery (churn grids). ------------------------------
  // Node to re-ship stage-s input from after the primary copy is lost: a
  // live upstream replica when one exists, else the source (which holds the
  // original payload).  Never names a corpse.
  auto upstream_holder = [&](std::size_t s) {
    if (s > 0) {
      for (const Replica& rep : stages[s - 1].replicas) {
        if (!rep.down && (!tracker || tracker->is_member(rep.node)))
          return rep.node;
      }
    }
    return source;
  };

  auto best_live_spare = [&] {
    auto best = spares.end();
    for (auto it = spares.begin(); it != spares.end(); ++it) {
      if (tracker && !tracker->is_member(*it)) continue;
      if (best == spares.end() || estimate_spm(*it) < estimate_spm(*best))
        best = it;
    }
    return best;
  };

  // A node left the pool.  Every replica it hosted fails over: in-flight
  // operations are killed, items it held are re-shipped from upstream (the
  // crashed copy is gone; upstream stages retain their outputs until the
  // item exits — the ack-buffer protocol), and the replica moves to the
  // best live spare — or waits down for a joiner when no spare exists.
  auto handle_node_loss = [&](NodeId node, bool crashed) {
    if (node == source)
      throw std::runtime_error(
          "Pipeline: source node lost to churn (place it on a protected "
          "node)");
    last_activity = backend.now();
    const bool first_loss = lost_nodes.insert(node.value).second;
    spares.erase(std::remove(spares.begin(), spares.end(), node),
                 spares.end());
    for (std::size_t s = 0; s < depth; ++s) {
      StageState& st = stages[s];
      if (st.pending_remap && *st.pending_remap == node)
        st.pending_remap.reset();
      for (std::size_t r = 0; r < st.replicas.size(); ++r) {
        Replica& rep = st.replicas[r];
        if (rep.node != node || rep.down) continue;
        for (auto op_it = ops.begin(); op_it != ops.end();) {
          const PendingOp& op = op_it->value;
          if (op.kind != OpKind::SinkOut && op.stage == s &&
              op.replica == r) {
            dead_tokens.insert(op_it->key);
            op_it = ops.erase(op_it);
          } else {
            ++op_it;
          }
        }
        auto requeue = [&](std::uint64_t id) {
          item_at(id).location = upstream_holder(s);
          st.waiting.push_front(id);
          met.inc(rm.tasks_redispatched);
        };
        if (rep.receiving) {
          requeue(*rep.receiving);
          rep.receiving.reset();
        }
        while (!rep.received.empty()) {
          requeue(rep.received.back());
          rep.received.pop_back();
        }
        if (rep.computing) {
          requeue(*rep.computing);
          rep.computing.reset();
        }
        rep.migrating = false;
        rep.latest_spm = 0.0;
        const auto best = best_live_spare();
        if (best != spares.end()) {
          rep.node = *best;
          spares.erase(best);
          ++report.remaps;
          ev.emit(Kind::StageRemapped, rep.node, TaskId::invalid(),
                  static_cast<double>(s), "failover");
          GRASP_LOG_INFO("pipeline") << "stage " << s << " failed over "
                                     << node.value << " -> "
                                     << rep.node.value;
        } else {
          rep.down = true;
          GRASP_LOG_INFO("pipeline")
              << "stage " << s << " lost node " << node.value
              << " with no spare; waiting for a join";
        }
      }
    }
    // Items whose only data copy sat on the dead node but had already been
    // handed downstream (queued for, or mid-transfer into, the next stage)
    // must be re-homed too, or schedule() would ship them out of a corpse.
    for (std::size_t s = 0; s < depth; ++s) {
      StageState& st = stages[s];
      for (const std::uint64_t id : st.waiting) {
        if (item_at(id).location == node)
          item_at(id).location = upstream_holder(s);
      }
      for (std::size_t r = 0; r < st.replicas.size(); ++r) {
        Replica& rep = st.replicas[r];
        if (!rep.receiving || item_at(*rep.receiving).location != node)
          continue;
        for (auto op_it = ops.begin(); op_it != ops.end();) {
          if (op_it->value.kind == OpKind::StageIn &&
              op_it->value.stage == s && op_it->value.replica == r) {
            dead_tokens.insert(op_it->key);
            op_it = ops.erase(op_it);
          } else {
            ++op_it;
          }
        }
        item_at(*rep.receiving).location = upstream_holder(s);
        st.waiting.push_front(*rep.receiving);
        rep.receiving.reset();
        met.inc(rm.tasks_redispatched);
      }
    }
    // Result bytes mid-transfer out of the corpse died with it: kill the
    // sink transfer and re-run the final stage for those items (their
    // emission is retracted; late re-delivery is honestly reported through
    // output_in_order).
    for (auto op_it = ops.begin(); op_it != ops.end();) {
      const PendingOp& op = op_it->value;
      if (op.kind == OpKind::SinkOut && items.contains(op.item) &&
          item_at(op.item).location == node) {
        dead_tokens.insert(op_it->key);
        const auto emitted = std::find(emission_order.rbegin(),
                                       emission_order.rend(), op.item);
        if (emitted != emission_order.rend())
          emission_order.erase(std::prev(emitted.base()));
        item_at(op.item).location = upstream_holder(depth - 1);
        stages[depth - 1].waiting.push_front(op.item);
        met.inc(rm.tasks_redispatched);
        op_it = ops.erase(op_it);
      } else {
        ++op_it;
      }
    }
    if (first_loss)
      ev.emit(crashed ? Kind::NodeCrashDetected : Kind::NodeLeftPool, node);
    arm_monitor();
  };

  // A node joined: revive a down replica if any stage is starving,
  // otherwise park it as a spare for remaps/replications.
  auto handle_join = [&](NodeId node) {
    last_activity = backend.now();
    lost_nodes.erase(node.value);
    ev.emit(Kind::NodeJoinedPool, node);
    if (std::find(observed.begin(), observed.end(), node) == observed.end()) {
      observed.push_back(node);
      monitor.rewatch(observed);
    }
    for (std::size_t s = 0; s < depth; ++s) {
      for (Replica& rep : stages[s].replicas) {
        if (!rep.down) continue;
        rep.down = false;
        rep.node = node;
        ++report.remaps;
        met.inc(rm.admissions);
        ev.emit(Kind::StageRemapped, node, TaskId::invalid(),
                static_cast<double>(s), "revive");
        arm_monitor();
        return;
      }
    }
    spares.push_back(node);
  };

  auto consume_membership = [&] {
    if (!tracker) return;
    for (const auto& e : tracker->poll(backend.now())) {
      switch (e.kind) {
        case gridsim::ChurnEventKind::Crash:
          handle_node_loss(e.node, true);
          break;
        case gridsim::ChurnEventKind::Leave:
          handle_node_loss(e.node, false);
          break;
        case gridsim::ChurnEventKind::Join:
        case gridsim::ChurnEventKind::Rejoin:
          handle_join(e.node);
          break;
      }
    }
  };

  // Emit `item` out of stage `s` (already resequenced): hand it to the
  // next stage's waiting queue, or ship it to the sink.
  auto emit_downstream = [&](std::size_t s, std::uint64_t item) {
    if (s + 1 < depth) {
      stages[s + 1].waiting.push_back(item);
    } else {
      emission_order.push_back(item);
      const OpToken token = tokens.alloc();
      backend.submit_transfer(token, item_at(item).location, source,
                              spec.stages.back().output_bytes);
      ops.emplace(token, PendingOp{OpKind::SinkOut, s, 0, item});
    }
  };

  // Submission wave of the current schedule() pass: every receive, compute
  // and migration the pass decides, in decision order, shipped to the
  // backend in one submit_batch call.  Only schedule() (and the remap
  // helper it calls) touch it.
  std::vector<OpRequest> submit_wave;

  auto apply_pending_remap = [&](std::size_t s) {
    StageState& st = stages[s];
    if (!st.pending_remap) return;
    Replica& rep = st.replicas[st.pending_remap_replica];
    if (rep.down || rep.receiving || rep.computing || rep.migrating) return;
    const NodeId target = *st.pending_remap;
    st.pending_remap.reset();
    rep.migrating = true;
    // Items already shipped to the old node must be re-shipped: return
    // them to the stage queue in id order (they predate everything queued).
    while (!rep.received.empty()) {
      st.waiting.push_front(rep.received.back());
      rep.received.pop_back();
    }
    const OpToken token = tokens.alloc();
    submit_wave.push_back(OpRequest::transfer(token, rep.node, target,
                                              kStageStateBytes));
    ops.emplace(token,
                PendingOp{OpKind::Migration, s, st.pending_remap_replica, 0});
    ev.emit(Kind::StageRemapped, target, TaskId::invalid(),
            static_cast<double>(s), "migrating");
    GRASP_LOG_INFO("pipeline") << "stage " << s << " remapping "
                               << rep.node.value << " -> " << target.value;
    ++report.remaps;
  };

  auto schedule = [&] {
    // Source keeps stage 0 fed up to the window.
    StageState& first = stages.front();
    while (injected < item_count &&
           first.waiting.size() < params_.source_window) {
      const std::uint64_t id = injected++;
      items.emplace(id, ItemState{source, backend.now()});
      first.waiting.push_back(id);
    }
    // The pass stages every submission — migrations, receives and computes
    // interleaved exactly as they are decided — and ships them in one
    // submit_batch call (a single bulk event-queue insert on the
    // simulator).  Batch order equals decision order, so completion
    // ordering is unchanged.
    for (std::size_t s = 0; s < depth; ++s) {
      StageState& st = stages[s];
      apply_pending_remap(s);
      for (std::size_t r = 0; r < st.replicas.size(); ++r) {
        Replica& rep = st.replicas[r];
        if (rep.migrating || rep.down) continue;
        const bool remap_hold =
            st.pending_remap && st.pending_remap_replica == r;
        // Double buffering: receive the next item while computing.
        if (!remap_hold && !rep.receiving && rep.received.size() < 2 &&
            !st.waiting.empty()) {
          const std::uint64_t id = st.waiting.front();
          st.waiting.pop_front();
          rep.receiving = id;
          const OpToken token = tokens.alloc();
          submit_wave.push_back(OpRequest::transfer(
              token, item_at(id).location, rep.node, bytes_into(s)));
          ops.emplace(token, PendingOp{OpKind::StageIn, s, r, id});
        }
        if (!rep.computing && !rep.received.empty()) {
          const std::uint64_t id = rep.received.front();
          rep.received.pop_front();
          rep.computing = id;
          const OpToken token = tokens.alloc();
          submit_wave.push_back(OpRequest::compute(
              token, rep.node, spec.stages[s].work_per_item));
          ops.emplace(token, PendingOp{OpKind::StageCompute, s, r, id});
        }
      }
    }
    if (!submit_wave.empty()) {
      backend.submit_batch(std::move(submit_wave));
      submit_wave.clear();
    }
  };

  auto any_structural_in_flight = [&] {
    for (const auto& st : stages) {
      if (st.pending_remap) return true;
      for (const auto& rep : st.replicas)
        if (rep.migrating) return true;
    }
    return false;
  };

  // Structural action: farm out the bottleneck stage onto one more node.
  auto maybe_replicate = [&] {
    if (params_.replicate_imbalance_factor <= 0.0) return;
    if (report.trace.count(Kind::StageReplicated) >= params_.max_replications)
      return;
    if (spares.empty() || any_structural_in_flight()) return;
    std::vector<double> effective(depth, 0.0);
    for (std::size_t s = 0; s < depth; ++s) {
      if (stages[s].service_ewma.empty()) return;  // not warmed up yet
      effective[s] = stages[s].service_ewma.value() /
                     static_cast<double>(stages[s].replicas.size());
    }
    const double med = median(effective);
    const auto worst_it = std::max_element(effective.begin(), effective.end());
    const std::size_t worst =
        static_cast<std::size_t>(worst_it - effective.begin());
    if (*worst_it <= params_.replicate_imbalance_factor * med) return;
    if (stages[worst].items_since_structural <
        params_.replication_cooldown_items)
      return;
    // Grow the stage on the fittest live spare; seed it with stage state
    // from the primary replica.
    const auto best_it = best_live_spare();
    if (best_it == spares.end()) return;
    const NodeId target = *best_it;
    spares.erase(best_it);
    Replica rep;
    rep.node = target;
    rep.migrating = true;
    stages[worst].replicas.push_back(std::move(rep));
    stages[worst].items_since_structural = 0;
    const OpToken token = tokens.alloc();
    backend.submit_transfer(token, stages[worst].replicas.front().node,
                            target, kStageStateBytes);
    ops.emplace(token, PendingOp{OpKind::Migration, worst,
                                 stages[worst].replicas.size() - 1, 0});
    ev.emit(Kind::StageReplicated, target, TaskId::invalid(),
            static_cast<double>(worst), "seeding");
    GRASP_LOG_INFO("pipeline")
        << "stage " << worst << " replicating onto " << target.value << " ("
        << stages[worst].replicas.size() << " replicas)";
  };

  auto consider_adaptation = [&] {
    // Structural replication has its own switch (replicate_imbalance_factor)
    // because it corrects the *program's* shape, not the environment;
    // adaptation_enabled gates the Algorithm-2 monitor/remap loop.
    if ((traits_.actions & kActionReplicateStage) != 0) maybe_replicate();
    if (!params_.adaptation_enabled) return;
    if ((traits_.actions & kActionRemapStage) == 0) return;
    if (report.remaps >= kMaxRemaps) return;
    if (spares.empty()) return;
    const MonitorVerdict verdict = exec_monitor.check(backend.now());
    if (verdict == MonitorVerdict::None) return;

    // Bottleneck replica: worst observed slowdown vs calibrated fitness.
    std::size_t worst_stage = 0, worst_replica = 0;
    double worst_ratio = 0.0;
    for (std::size_t s = 0; s < depth; ++s) {
      for (std::size_t r = 0; r < stages[s].replicas.size(); ++r) {
        const Replica& rep = stages[s].replicas[r];
        if (rep.latest_spm <= 0.0) continue;
        const double ratio = rep.latest_spm / known_spm(rep.node);
        if (ratio > worst_ratio) {
          worst_ratio = ratio;
          worst_stage = s;
          worst_replica = r;
        }
      }
    }
    StageState& st = stages[worst_stage];
    const Replica& rep = st.replicas[worst_replica];
    const auto best_it = best_live_spare();
    if (best_it == spares.end()) return;
    const double current_spm =
        rep.latest_spm > 0.0 ? rep.latest_spm : estimate_spm(rep.node);
    if (estimate_spm(*best_it) * params_.remap_advantage >= current_spm)
      return;  // no spare is convincingly better
    if (st.pending_remap || rep.migrating) return;
    const NodeId target = *best_it;
    spares.erase(best_it);
    spares.push_back(rep.node);  // old node becomes a spare
    st.pending_remap = target;
    st.pending_remap_replica = worst_replica;
  };

  // Admit nodes that joined while calibration ran: their tracker events are
  // already consumed, so hand them to the join path now the mapping exists.
  for (const NodeId n : joined_during_cal) handle_join(n);

  // Liveness tick: a one-shot backend timer, re-armed on every firing, so
  // membership is polled between completions too — a crash that stalls the
  // whole stream is noticed within one period, not at the next completion.
  OpToken tick_token = 0;
  auto arm_tick = [&] {
    if (!tracker || params_.membership_tick.value <= 0.0) return;
    tick_token = tokens.alloc();
    backend.submit_timer(tick_token, params_.membership_tick);
  };
  arm_tick();

  // ---- Main loop. -------------------------------------------------------
  consume_membership();
  while (report.trace.count(Kind::ItemCompleted) < item_count) {
    schedule();
    const auto completion = backend.wait_next();
    if (!completion)
      throw std::logic_error("Pipeline: deadlock — items remain but nothing "
                             "in flight (stage lost with no spare?)");
    monitor.advance_to(backend.now());
    consume_membership();
    if (completion->is_timer) {
      if (tick_token != 0 && completion->token == tick_token) {
        tick_token = 0;
        arm_tick();
        if (ops.empty() && dead_tokens.empty()) {
          // Nothing in flight and no zombie pending.  Re-arming forever
          // would spin, so classify the lull: work schedule() can still
          // dispatch (progress resumes next iteration), a down stage
          // waiting for a joiner (keep ticking, bounded by patience), or
          // the dead end the nullopt branch reports on tick-free runs.
          bool waiting_for_join = false;
          for (const auto& st : stages)
            for (const auto& rep : st.replicas)
              if (rep.down) waiting_for_join = true;
          bool dispatchable = false;
          for (std::size_t s = 0; s < depth && !dispatchable; ++s) {
            const StageState& st = stages[s];
            bool live = false;
            for (const auto& rep : st.replicas)
              if (!rep.down && !rep.migrating) live = true;
            if (!live) continue;
            if (!st.waiting.empty() || (s == 0 && injected < item_count))
              dispatchable = true;
            for (const auto& rep : st.replicas)
              if (!rep.received.empty()) dispatchable = true;
          }
          if (!dispatchable) {
            if (!waiting_for_join) {
              backend.cancel_timer(tick_token);
              throw std::logic_error(
                  "Pipeline: deadlock — items remain but nothing "
                  "in flight (stage lost with no spare?)");
            }
            if (backend.now() - last_activity > kDownStagePatience) {
              backend.cancel_timer(tick_token);
              throw std::runtime_error(
                  "Pipeline: stage down with no spare and no joiner "
                  "within the down-stage patience");
            }
          }
        }
      }
      continue;
    }
    last_activity = backend.now();
    if (dead_tokens.erase(completion->token) > 0) {
      met.inc(rm.zombie_completions);
      continue;
    }
    const PendingOp* found = ops.find(completion->token);
    if (found == nullptr)
      throw std::logic_error("Pipeline: unknown completion token");
    const PendingOp op = *found;
    ops.erase(completion->token);

    switch (op.kind) {
      case OpKind::StageIn: {
        Replica& rep = stages[op.stage].replicas[op.replica];
        rep.receiving.reset();
        rep.received.push_back(op.item);
        item_at(op.item).location = rep.node;
        break;
      }
      case OpKind::StageCompute: {
        StageState& st = stages[op.stage];
        Replica& rep = st.replicas[op.replica];
        rep.computing.reset();
        const double service = completion->duration().value;
        const double work = spec.stages[op.stage].work_per_item.value;
        const double spm = service / std::max(1e-9, work);
        rep.latest_spm = spm;
        st.busy_seconds += service;
        st.service_sum += service;
        st.service_ewma.add(service);
        ++st.items_done;
        ++st.items_since_structural;
        exec_monitor.observe(rep.node, spm, backend.now());
        // Resequenced exit: emit in item-id order.  An item below
        // next_expected is a failure-triggered re-execution whose original
        // emission was retracted; it re-emits immediately.
        if (op.item < st.next_expected) {
          emit_downstream(op.stage, op.item);
        } else {
          st.done_buffer[op.item] = true;
          while (!st.done_buffer.empty() &&
                 st.done_buffer.begin()->first == st.next_expected) {
            st.done_buffer.erase(st.done_buffer.begin());
            emit_downstream(op.stage, st.next_expected);
            ++st.next_expected;
          }
        }
        consider_adaptation();
        break;
      }
      case OpKind::SinkOut: {
        last_done = backend.now();
        latencies.push_back((backend.now() - item_at(op.item).entered).value);
        met.observe(h_item_latency, latencies.back());
        ev.emit(Kind::ItemCompleted, source, TaskId{op.item},
                latencies.back());
        items.erase(op.item);
        break;
      }
      case OpKind::Migration: {
        StageState& st = stages[op.stage];
        Replica& rep = st.replicas[op.replica];
        rep.node = completion->node;
        rep.migrating = false;
        rep.latest_spm = 0.0;
        if (tracker && !tracker->is_member(rep.node)) {
          // The migration target died while state was in transit.
          handle_node_loss(rep.node, true);
          break;
        }
        arm_monitor();
        ev.emit(Kind::StageRemapped, rep.node, TaskId::invalid(),
                static_cast<double>(op.stage), "resumed");
        break;
      }
    }
  }

  if (tick_token != 0) backend.cancel_timer(tick_token);

  // ---- Report. ----------------------------------------------------------
  report.makespan = last_done;
  report.rounds = exec_monitor.rounds_completed();
  for (std::size_t s = 0; s < depth; ++s) {
    StageStats st;
    st.stage = spec.stages[s].id;
    st.node = stages[s].replicas.front().node;
    st.replicas = stages[s].replicas.size();
    st.items = stages[s].items_done;
    st.mean_service_s =
        stages[s].items_done > 0
            ? stages[s].service_sum / static_cast<double>(stages[s].items_done)
            : 0.0;
    st.busy_fraction = report.makespan.value > 0.0
                           ? stages[s].busy_seconds / report.makespan.value
                           : 0.0;
    report.stages.push_back(st);
    report.final_mapping.push_back(stages[s].replicas.front().node);
  }
  if (!latencies.empty()) {
    report.mean_latency_s = mean(latencies);
    report.p95_latency_s = quantile(latencies, 0.95);
  }
  report.output_in_order =
      std::is_sorted(emission_order.begin(), emission_order.end());
  // The resilience report is a registry snapshot (delta against the run
  // baseline, so a Telemetry reused across runs still yields per-run
  // numbers); mirror the pipeline scalars for dashboards/exporters.
  report.resilience = resil::from_snapshot(met.snapshot().diff(base_snap));
  // Report fields that count one event kind are read off the trace.
  report.items_completed = report.trace.count(Kind::ItemCompleted);
  report.replications = report.trace.count(Kind::StageReplicated);
  met.set_counter(met.counter("pipeline.items_completed"),
                  report.items_completed);
  met.set_counter(met.counter("pipeline.remaps"), report.remaps);
  met.set_counter(met.counter("pipeline.replications"), report.replications);
  met.set_counter(met.counter("pipeline.rounds"), report.rounds);
  met.set(met.gauge("pipeline.makespan_s"), report.makespan.value);
  met.set(met.gauge("pipeline.mean_latency_s"), report.mean_latency_s);
  met.set(met.gauge("pipeline.p95_latency_s"), report.p95_latency_s);
  // Post-run blame diagnosis on the recorded spans (detail tier only).
  if (met.enabled() && !tel.spans.records().empty())
    obs::publish_blame(
        obs::analyze_blame(tel.spans.records(), report.makespan.value), met);
  if (flight != nullptr)
    flight->note(report.makespan.value, "run", "pipeline_end", source,
                 static_cast<double>(report.items_completed));
  return report;
}

}  // namespace grasp::core
