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
    : params_(std::move(params)) {
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

// One Pipeline run: the stream's state and the handlers that step it.
class PipelineRun final : public PipelineEngine {
 public:
  PipelineRun(PipelineParams params, OpPort& backend,
              const gridsim::Grid& grid, std::vector<NodeId> pool,
              const workloads::PipelineSpec& spec, std::size_t item_count)
      : params_(std::move(params)),
        traits_(pipeline_traits()),
        backend_(backend),
        grid_(grid),
        pool_(std::move(pool)),
        spec_(spec),
        item_count_(item_count),
        depth_(spec.depth()),
        churn_(grid.churn()),
        tel_(params_.telemetry != nullptr ? *params_.telemetry
                                          : private_telemetry_),
        met_(tel_.metrics),
        obs_clock_(backend),
        ev_(obs_clock_, report_.trace, tel_.spans, tel_.flight, &met_, &rm_),
        flight_(tel_.flight) {}

  void start(Seconds now) override {
    if (depth_ == 0) throw std::invalid_argument("Pipeline: empty spec");
    if (item_count_ == 0)
      throw std::invalid_argument("Pipeline: item_count must be positive");
    if (!params_.stage_replicas.empty() &&
        params_.stage_replicas.size() != depth_)
      throw std::invalid_argument(
          "Pipeline: stage_replicas must match the stage count");
    for (std::size_t s = 0; s < depth_; ++s) {
      const std::size_t r = params_.stage_replicas.empty()
                                ? 1
                                : std::max<std::size_t>(
                                      1, params_.stage_replicas[s]);
      initial_nodes_ += r;
    }

    // Membership: map stages over the nodes present at t=0; absent nodes
    // (late joiners) arrive through the tracker as spares.
    present_ = churn_ ? churn_->members_at(pool_, now) : pool_;
    if (present_.size() < initial_nodes_)
      throw std::invalid_argument("Pipeline: pool smaller than total replicas");
    source_ =
        params_.source_node.is_valid() ? params_.source_node : present_.front();
    if (churn_ != nullptr) tracker_.emplace(*churn_, pool_);

    clock_lease_.attach(tel_, obs_clock_);
    rm_ = resil::ResilienceMetrics::register_in(met_);
    base_snap_ = met_.snapshot();
    h_item_latency_ =
        met_.histogram("pipeline.item_latency_seconds", {1e-3, 2.0, 48});
    if (flight_ != nullptr)
      flight_->note(now.value, "run", "pipeline_begin", source_,
                    static_cast<double>(item_count_));

    perfmon::MonitorDaemon::Params mon_params = params_.monitor;
    mon_params.root = source_;
    monitor_.emplace(grid_, present_, mon_params);
    monitor_->attach_metrics(&met_);
    observed_ = present_;

    workloads::TaskSet probes;
    probes.name = "pipeline-probes";
    const double mean_stage_work =
        spec_.work_per_item().value / static_cast<double>(depth_);
    for (std::size_t i = 0; i < present_.size(); ++i) {
      workloads::TaskSpec t;
      t.id = TaskId{i};
      t.work = Mops{mean_stage_work};
      t.input = spec_.source_bytes;
      t.output = spec_.stages.back().output_bytes;
      probes.tasks.push_back(t);
    }
    probe_source_.emplace(probes);
    CalibrationParams cal_params = params_.calibration;
    if (!cal_params.root.is_valid()) cal_params.root = source_;
    cal_params.select_fraction = 1.0;  // rank everyone; mapping picks below
    cal_params.exclusion_ratio = 0.0;
    last_activity_ = now;

    cal_span_ = tel_.spans.begin("calibration");
    pass_.emplace(Calibrator(traits_, cal_params), backend_, present_,
                  *probe_source_, &*monitor_, &ev_, tokens_);
    if (pass_->done()) finish_calibration();  // every node warm-started
  }

  void on(const Completion& c) override {
    switch (mode_) {
      case Mode::Calibrating: on_calibrating(c); return;
      case Mode::Streaming: on_streaming(c); return;
      case Mode::Finished: break;
    }
    throw std::logic_error("Pipeline: completion after the run finished");
  }

  void on_idle() override {
    switch (mode_) {
      case Mode::Calibrating:
        throw std::logic_error("Calibrator: backend drained unexpectedly");
      case Mode::Streaming:
        throw std::logic_error(
            "Pipeline: deadlock — items remain but nothing in flight "
            "(stage lost with no spare?)");
      case Mode::Finished: return;
    }
  }

  [[nodiscard]] bool finished() const override {
    return mode_ == Mode::Finished;
  }
  [[nodiscard]] PipelineReport take_report() override {
    return std::move(report_);
  }

 private:
  enum class Mode { Calibrating, Streaming, Finished };

  // ---- Initial calibration ------------------------------------------------

  void on_calibrating(const Completion& c) {
    monitor_->advance_to(backend_.now());
    for (const NodeId dead : poll_during_calibration(backend_.now()))
      for (const auto& a : pass_->abandon(dead)) dead_tokens_.insert(a.token);
    if (dead_tokens_.erase(c.token) > 0)
      met_.inc(rm_.zombie_completions);
    else
      pass_->on(c);
    if (pass_->done()) finish_calibration();
  }

  // Membership events crossed mid-probe: returns the nodes lost since the
  // last poll, and parks joiners for admission once the mapping exists.
  std::vector<NodeId> poll_during_calibration(Seconds at) {
    using Kind = gridsim::TraceEventKind;
    if (tracker_) {
      for (const auto& e : tracker_->poll(at)) {
        switch (e.kind) {
          case gridsim::ChurnEventKind::Crash:
          case gridsim::ChurnEventKind::Leave: {
            const bool crashed = e.kind == gridsim::ChurnEventKind::Crash;
            if (lost_nodes_.insert(e.node.value).second)
              ev_.emit(crashed ? Kind::NodeCrashDetected : Kind::NodeLeftPool,
                        e.node, TaskId::invalid(), 0.0, "calibration");
            newly_dead_cal_.push_back(e.node);
            // A joiner dying before the mapping exists must not be parked
            // for admission — its crash event is consumed here and would
            // never be re-reported to the main loop.
            joined_during_cal_.erase(std::remove(joined_during_cal_.begin(),
                                                 joined_during_cal_.end(),
                                                 e.node),
                                     joined_during_cal_.end());
            break;
          }
          case gridsim::ChurnEventKind::Join:
          case gridsim::ChurnEventKind::Rejoin:
            if (std::find(joined_during_cal_.begin(), joined_during_cal_.end(),
                          e.node) == joined_during_cal_.end())
              joined_during_cal_.push_back(e.node);
            lost_nodes_.erase(e.node.value);  // rejoined mid-calibration
            break;
        }
      }
    }
    return std::exchange(newly_dead_cal_, {});
  }

  void finish_calibration() {
    const CalibrationResult calibration = pass_->finish();
    pass_.reset();
    tel_.spans.end(cal_span_, static_cast<double>(calibration.tasks_consumed),
                   "initial");
    if (calibration.ranking.size() < initial_nodes_)
      throw std::runtime_error(
          "Pipeline: pool shrank below the replica count during calibration");

    double spm_sum = 0.0;
    for (const auto& s : calibration.ranking) {
      cal_spm_[s.node] = std::max(1e-9, s.adjusted_spm);
      cal_load_[s.node] = s.observed_load;
      spm_sum += cal_spm_[s.node];
    }
    fallback_spm_ = spm_sum / static_cast<double>(calibration.ranking.size());

    // ---- Initial mapping: heaviest stage -> fittest nodes. ---------------
    std::vector<std::size_t> stage_order(depth_);
    for (std::size_t s = 0; s < depth_; ++s) stage_order[s] = s;
    std::sort(stage_order.begin(), stage_order.end(),
              [&](std::size_t a, std::size_t b) {
                return spec_.stages[a].work_per_item >
                       spec_.stages[b].work_per_item;
              });
    stages_.resize(depth_);
    std::size_t next = 0;
    for (const std::size_t s : stage_order) {
      const std::size_t want = params_.stage_replicas.empty()
                                   ? 1
                                   : std::max<std::size_t>(
                                         1, params_.stage_replicas[s]);
      for (std::size_t r = 0; r < want; ++r) {
        Replica rep;
        rep.node = calibration.ranking[next++].node;
        stages_[s].replicas.push_back(std::move(rep));
      }
    }
    for (; next < calibration.ranking.size(); ++next)
      spares_.push_back(calibration.ranking[next].node);

    exec_monitor_.emplace(traits_, params_.threshold);
    arm_monitor();
    latencies_.reserve(item_count_);

    // Admit nodes that joined while calibration ran: their tracker events are
    // already consumed, so hand them to the join path now the mapping exists.
    for (const NodeId n : joined_during_cal_) handle_join(n);
    arm_tick();
    consume_membership();
    loop_head();
  }

  // ---- Streaming ----------------------------------------------------------

  void loop_head() {
    if (report_.trace.count(gridsim::TraceEventKind::ItemCompleted) >=
        item_count_) {
      finish_run();
      return;
    }
    mode_ = Mode::Streaming;
    schedule();
  }

  void on_streaming(const Completion& c) {
    monitor_->advance_to(backend_.now());
    consume_membership();
    if (c.is_timer) {
      if (tick_token_ != 0 && c.token == tick_token_) on_tick();
      loop_head();
      return;
    }
    last_activity_ = backend_.now();
    if (dead_tokens_.erase(c.token) > 0) {
      met_.inc(rm_.zombie_completions);
      loop_head();
      return;
    }
    const PendingOp* found = ops_.find(c.token);
    if (found == nullptr)
      throw std::logic_error("Pipeline: unknown completion token");
    const PendingOp op = *found;
    ops_.erase(c.token);

    switch (op.kind) {
      case OpKind::StageIn: {
        Replica& rep = stages_[op.stage].replicas[op.replica];
        rep.receiving.reset();
        rep.received.push_back(op.item);
        item_at(op.item).location = rep.node;
        break;
      }
      case OpKind::StageCompute: {
        StageState& st = stages_[op.stage];
        Replica& rep = st.replicas[op.replica];
        rep.computing.reset();
        const double service = c.duration().value;
        const double work = spec_.stages[op.stage].work_per_item.value;
        const double spm = service / std::max(1e-9, work);
        rep.latest_spm = spm;
        st.busy_seconds += service;
        st.service_sum += service;
        st.service_ewma.add(service);
        ++st.items_done;
        ++st.items_since_structural;
        exec_monitor_->observe(rep.node, spm, backend_.now());
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
        last_done_ = backend_.now();
        latencies_.push_back((backend_.now() - item_at(op.item).entered).value);
        met_.observe(h_item_latency_, latencies_.back());
        ev_.emit(gridsim::TraceEventKind::ItemCompleted, source_,
                  TaskId{op.item}, latencies_.back());
        items_.erase(op.item);
        break;
      }
      case OpKind::Migration: {
        StageState& st = stages_[op.stage];
        Replica& rep = st.replicas[op.replica];
        rep.node = c.node;
        rep.migrating = false;
        rep.latest_spm = 0.0;
        if (tracker_ && !tracker_->is_member(rep.node)) {
          // The migration target died while state was in transit.
          handle_node_loss(rep.node, true);
          break;
        }
        arm_monitor();
        ev_.emit(gridsim::TraceEventKind::StageRemapped, rep.node,
                  TaskId::invalid(), static_cast<double>(op.stage), "resumed");
        break;
      }
    }
    loop_head();
  }

  void on_tick() {
    tick_token_ = 0;
    arm_tick();
    if (!ops_.empty() || !dead_tokens_.empty()) return;
    // Nothing in flight and no zombie pending.  Re-arming forever would
    // spin, so classify the lull: work schedule() can still dispatch
    // (progress resumes at the loop head), a down stage waiting for a
    // joiner (keep ticking, bounded by patience), or the dead end on_idle
    // reports on tick-free runs.
    bool waiting_for_join = false;
    for (const auto& st : stages_)
      for (const auto& rep : st.replicas)
        if (rep.down) waiting_for_join = true;
    bool dispatchable = false;
    for (std::size_t s = 0; s < depth_ && !dispatchable; ++s) {
      const StageState& st = stages_[s];
      bool live = false;
      for (const auto& rep : st.replicas)
        if (!rep.down && !rep.migrating) live = true;
      if (!live) continue;
      if (!st.waiting.empty() || (s == 0 && injected_ < item_count_))
        dispatchable = true;
      for (const auto& rep : st.replicas)
        if (!rep.received.empty()) dispatchable = true;
    }
    if (dispatchable) return;
    if (!waiting_for_join) {
      backend_.cancel_timer(tick_token_);
      throw std::logic_error(
          "Pipeline: deadlock — items remain but nothing "
          "in flight (stage lost with no spare?)");
    }
    if (backend_.now() - last_activity_ > kDownStagePatience) {
      backend_.cancel_timer(tick_token_);
      throw std::runtime_error(
          "Pipeline: stage down with no spare and no joiner "
          "within the down-stage patience");
    }
  }

  void finish_run() {
    using Kind = gridsim::TraceEventKind;
    if (tick_token_ != 0) backend_.cancel_timer(tick_token_);

    // ---- Report. ----------------------------------------------------------
    report_.makespan = last_done_;
    report_.rounds = exec_monitor_->rounds_completed();
    for (std::size_t s = 0; s < depth_; ++s) {
      StageStats st;
      st.stage = spec_.stages[s].id;
      st.node = stages_[s].replicas.front().node;
      st.replicas = stages_[s].replicas.size();
      st.items = stages_[s].items_done;
      st.mean_service_s =
          stages_[s].items_done > 0
              ? stages_[s].service_sum /
                    static_cast<double>(stages_[s].items_done)
              : 0.0;
      st.busy_fraction = report_.makespan.value > 0.0
                             ? stages_[s].busy_seconds / report_.makespan.value
                             : 0.0;
      report_.stages.push_back(st);
      report_.final_mapping.push_back(stages_[s].replicas.front().node);
    }
    if (!latencies_.empty()) {
      report_.mean_latency_s = mean(latencies_);
      report_.p95_latency_s = quantile(latencies_, 0.95);
    }
    report_.output_in_order =
        std::is_sorted(emission_order_.begin(), emission_order_.end());
    // The resilience report is a registry snapshot (delta against the run
    // baseline, so a Telemetry reused across runs still yields per-run
    // numbers); mirror the pipeline scalars for dashboards/exporters.
    report_.resilience = resil::from_snapshot(met_.snapshot().diff(base_snap_));
    // Report fields that count one event kind are read off the trace.
    report_.items_completed = report_.trace.count(Kind::ItemCompleted);
    report_.replications = report_.trace.count(Kind::StageReplicated);
    met_.set_counter(met_.counter("pipeline.items_completed"),
                     report_.items_completed);
    met_.set_counter(met_.counter("pipeline.remaps"), report_.remaps);
    met_.set_counter(met_.counter("pipeline.replications"),
                     report_.replications);
    met_.set_counter(met_.counter("pipeline.rounds"), report_.rounds);
    met_.set(met_.gauge("pipeline.makespan_s"), report_.makespan.value);
    met_.set(met_.gauge("pipeline.mean_latency_s"), report_.mean_latency_s);
    met_.set(met_.gauge("pipeline.p95_latency_s"), report_.p95_latency_s);
    // Post-run blame diagnosis on the recorded spans (detail tier only).
    if (met_.enabled() && !tel_.spans.records().empty())
      obs::publish_blame(
          obs::analyze_blame(tel_.spans.records(), report_.makespan.value),
          met_);
    if (flight_ != nullptr)
      flight_->note(report_.makespan.value, "run", "pipeline_end", source_,
                    static_cast<double>(report_.items_completed));
    clock_lease_.release();
    mode_ = Mode::Finished;
  }

  // ---- The stream's machinery ---------------------------------------------

  ItemState& item_at(std::uint64_t id) {
    ItemState* state = items_.find(id);
    if (state == nullptr) throw std::logic_error("Pipeline: unknown item id");
    return *state;
  }

  Bytes bytes_into(std::size_t s) const {
    return s == 0 ? spec_.source_bytes : spec_.stages[s - 1].output_bytes;
  }

  double known_spm(NodeId n) const {
    const auto it = cal_spm_.find(n);
    return it != cal_spm_.end() ? it->second : fallback_spm_;
  }

  // Extrapolate a node's current fitness from calibration fitness and the
  // forecast load via the processor-sharing rule (spm scales with load+1).
  double estimate_spm(NodeId n) const {
    const double forecast = monitor_->forecast_load(n);
    const auto load_it = cal_load_.find(n);
    const double at_cal = load_it != cal_load_.end() ? load_it->second : 0.0;
    return known_spm(n) * (forecast + 1.0) / (at_cal + 1.0);
  }

  void arm_monitor() {
    std::vector<NodeId> mapped;
    OnlineStats base;
    for (const auto& st : stages_) {
      for (const auto& rep : st.replicas) {
        if (rep.down) continue;
        if (std::find(mapped.begin(), mapped.end(), rep.node) == mapped.end())
          mapped.push_back(rep.node);
        base.add(known_spm(rep.node));
      }
    }
    exec_monitor_->arm(base.mean(), mapped, backend_.now());
  }

  // ---- Membership machinery (churn grids). ------------------------------
  // Node to re-ship stage-s input from after the primary copy is lost: a live
  // upstream replica when one exists, else the source (which holds the
  // original payload).  Never names a corpse.
  NodeId upstream_holder(std::size_t s) const {
    if (s > 0) {
      for (const Replica& rep : stages_[s - 1].replicas) {
        if (!rep.down && (!tracker_ || tracker_->is_member(rep.node)))
          return rep.node;
      }
    }
    return source_;
  }

  std::deque<NodeId>::iterator best_live_spare() {
    auto best = spares_.end();
    for (auto it = spares_.begin(); it != spares_.end(); ++it) {
      if (tracker_ && !tracker_->is_member(*it)) continue;
      if (best == spares_.end() || estimate_spm(*it) < estimate_spm(*best))
        best = it;
    }
    return best;
  }

  // A node left the pool.  Every replica it hosted fails over: in-flight
  // operations are killed, items it held are re-shipped from upstream (the
  // crashed copy is gone; upstream stages retain their outputs until the
  // item exits — the ack-buffer protocol), and the replica moves to the
  // best live spare — or waits down for a joiner when no spare exists.
  void handle_node_loss(NodeId node, bool crashed) {
    using Kind = gridsim::TraceEventKind;
    if (node == source_)
      throw std::runtime_error(
          "Pipeline: source node lost to churn (place it on a protected "
          "node)");
    last_activity_ = backend_.now();
    const bool first_loss = lost_nodes_.insert(node.value).second;
    spares_.erase(std::remove(spares_.begin(), spares_.end(), node),
                  spares_.end());
    for (std::size_t s = 0; s < depth_; ++s) {
      StageState& st = stages_[s];
      if (st.pending_remap && *st.pending_remap == node)
        st.pending_remap.reset();
      for (std::size_t r = 0; r < st.replicas.size(); ++r) {
        Replica& rep = st.replicas[r];
        if (rep.node != node || rep.down) continue;
        for (auto op_it = ops_.begin(); op_it != ops_.end();) {
          const PendingOp& op = op_it->value;
          if (op.kind != OpKind::SinkOut && op.stage == s && op.replica == r) {
            dead_tokens_.insert(op_it->key);
            op_it = ops_.erase(op_it);
          } else {
            ++op_it;
          }
        }
        auto requeue = [&](std::uint64_t id) {
          item_at(id).location = upstream_holder(s);
          st.waiting.push_front(id);
          met_.inc(rm_.tasks_redispatched);
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
        if (best != spares_.end()) {
          rep.node = *best;
          spares_.erase(best);
          ++report_.remaps;
          ev_.emit(Kind::StageRemapped, rep.node, TaskId::invalid(),
                    static_cast<double>(s), "failover");
          GRASP_LOG_INFO("pipeline") << "stage " << s << " failed over "
                                     << node.value << " -> " << rep.node.value;
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
    for (std::size_t s = 0; s < depth_; ++s) {
      StageState& st = stages_[s];
      for (const std::uint64_t id : st.waiting) {
        if (item_at(id).location == node)
          item_at(id).location = upstream_holder(s);
      }
      for (std::size_t r = 0; r < st.replicas.size(); ++r) {
        Replica& rep = st.replicas[r];
        if (!rep.receiving || item_at(*rep.receiving).location != node)
          continue;
        for (auto op_it = ops_.begin(); op_it != ops_.end();) {
          if (op_it->value.kind == OpKind::StageIn &&
              op_it->value.stage == s && op_it->value.replica == r) {
            dead_tokens_.insert(op_it->key);
            op_it = ops_.erase(op_it);
          } else {
            ++op_it;
          }
        }
        item_at(*rep.receiving).location = upstream_holder(s);
        st.waiting.push_front(*rep.receiving);
        rep.receiving.reset();
        met_.inc(rm_.tasks_redispatched);
      }
    }
    // Result bytes mid-transfer out of the corpse died with it: kill the sink
    // transfer and re-run the final stage for those items (their emission is
    // retracted; late re-delivery is honestly reported through
    // output_in_order).
    for (auto op_it = ops_.begin(); op_it != ops_.end();) {
      const PendingOp& op = op_it->value;
      if (op.kind == OpKind::SinkOut && items_.contains(op.item) &&
          item_at(op.item).location == node) {
        dead_tokens_.insert(op_it->key);
        const auto emitted = std::find(emission_order_.rbegin(),
                                       emission_order_.rend(), op.item);
        if (emitted != emission_order_.rend())
          emission_order_.erase(std::prev(emitted.base()));
        item_at(op.item).location = upstream_holder(depth_ - 1);
        stages_[depth_ - 1].waiting.push_front(op.item);
        met_.inc(rm_.tasks_redispatched);
        op_it = ops_.erase(op_it);
      } else {
        ++op_it;
      }
    }
    if (first_loss)
      ev_.emit(crashed ? Kind::NodeCrashDetected : Kind::NodeLeftPool, node);
    arm_monitor();
  }

  // A node joined: revive a down replica if any stage is starving, otherwise
  // park it as a spare for remaps/replications.
  void handle_join(NodeId node) {
    using Kind = gridsim::TraceEventKind;
    last_activity_ = backend_.now();
    lost_nodes_.erase(node.value);
    ev_.emit(Kind::NodeJoinedPool, node);
    if (std::find(observed_.begin(), observed_.end(), node) ==
        observed_.end()) {
      observed_.push_back(node);
      monitor_->rewatch(observed_);
    }
    for (std::size_t s = 0; s < depth_; ++s) {
      for (Replica& rep : stages_[s].replicas) {
        if (!rep.down) continue;
        rep.down = false;
        rep.node = node;
        ++report_.remaps;
        met_.inc(rm_.admissions);
        ev_.emit(Kind::StageRemapped, node, TaskId::invalid(),
                  static_cast<double>(s), "revive");
        arm_monitor();
        return;
      }
    }
    spares_.push_back(node);
  }

  void consume_membership() {
    if (!tracker_) return;
    for (const auto& e : tracker_->poll(backend_.now())) {
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
  }

  // Emit `item` out of stage `s` (already resequenced): hand it to the next
  // stage's waiting queue, or ship it to the sink.
  void emit_downstream(std::size_t s, std::uint64_t item) {
    if (s + 1 < depth_) {
      stages_[s + 1].waiting.push_back(item);
    } else {
      emission_order_.push_back(item);
      const OpToken token = tokens_.alloc();
      backend_.submit_transfer(token, item_at(item).location, source_,
                               spec_.stages.back().output_bytes);
      ops_.emplace(token, PendingOp{OpKind::SinkOut, s, 0, item});
    }
  }

  void apply_pending_remap(std::size_t s) {
    StageState& st = stages_[s];
    if (!st.pending_remap) return;
    Replica& rep = st.replicas[st.pending_remap_replica];
    if (rep.down || rep.receiving || rep.computing || rep.migrating) return;
    const NodeId target = *st.pending_remap;
    st.pending_remap.reset();
    rep.migrating = true;
    // Items already shipped to the old node must be re-shipped: return them
    // to the stage queue in id order (they predate everything queued).
    while (!rep.received.empty()) {
      st.waiting.push_front(rep.received.back());
      rep.received.pop_back();
    }
    const OpToken token = tokens_.alloc();
    submit_wave_.push_back(
        OpRequest::transfer(token, rep.node, target, kStageStateBytes));
    ops_.emplace(token,
                 PendingOp{OpKind::Migration, s, st.pending_remap_replica, 0});
    ev_.emit(gridsim::TraceEventKind::StageRemapped, target, TaskId::invalid(),
              static_cast<double>(s), "migrating");
    GRASP_LOG_INFO("pipeline") << "stage " << s << " remapping "
                               << rep.node.value << " -> " << target.value;
    ++report_.remaps;
  }

  void schedule() {
    // Source keeps stage 0 fed up to the window.
    StageState& first = stages_.front();
    while (injected_ < item_count_ &&
           first.waiting.size() < params_.source_window) {
      const std::uint64_t id = injected_++;
      items_.emplace(id, ItemState{source_, backend_.now()});
      first.waiting.push_back(id);
    }
    // The pass stages every submission — migrations, receives and computes
    // interleaved exactly as they are decided — and ships them in one
    // submit_batch call (a single bulk event-queue insert on the simulator).
    // Batch order equals decision order, so completion ordering is
    // unchanged.
    for (std::size_t s = 0; s < depth_; ++s) {
      StageState& st = stages_[s];
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
          const OpToken token = tokens_.alloc();
          submit_wave_.push_back(OpRequest::transfer(
              token, item_at(id).location, rep.node, bytes_into(s)));
          ops_.emplace(token, PendingOp{OpKind::StageIn, s, r, id});
        }
        if (!rep.computing && !rep.received.empty()) {
          const std::uint64_t id = rep.received.front();
          rep.received.pop_front();
          rep.computing = id;
          const OpToken token = tokens_.alloc();
          submit_wave_.push_back(OpRequest::compute(
              token, rep.node, spec_.stages[s].work_per_item));
          ops_.emplace(token, PendingOp{OpKind::StageCompute, s, r, id});
        }
      }
    }
    if (!submit_wave_.empty()) {
      backend_.submit_batch(std::move(submit_wave_));
      submit_wave_.clear();
    }
  }

  bool any_structural_in_flight() const {
    for (const auto& st : stages_) {
      if (st.pending_remap) return true;
      for (const auto& rep : st.replicas)
        if (rep.migrating) return true;
    }
    return false;
  }

  // Structural action: farm out the bottleneck stage onto one more node.
  void maybe_replicate() {
    using Kind = gridsim::TraceEventKind;
    if (params_.replicate_imbalance_factor <= 0.0) return;
    if (report_.trace.count(Kind::StageReplicated) >= params_.max_replications)
      return;
    if (spares_.empty() || any_structural_in_flight()) return;
    std::vector<double> effective(depth_, 0.0);
    for (std::size_t s = 0; s < depth_; ++s) {
      if (stages_[s].service_ewma.empty()) return;  // not warmed up yet
      effective[s] = stages_[s].service_ewma.value() /
                     static_cast<double>(stages_[s].replicas.size());
    }
    const double med = median(effective);
    const auto worst_it = std::max_element(effective.begin(), effective.end());
    const std::size_t worst =
        static_cast<std::size_t>(worst_it - effective.begin());
    if (*worst_it <= params_.replicate_imbalance_factor * med) return;
    if (stages_[worst].items_since_structural <
        params_.replication_cooldown_items)
      return;
    // Grow the stage on the fittest live spare; seed it with stage state from
    // the primary replica.
    const auto best_it = best_live_spare();
    if (best_it == spares_.end()) return;
    const NodeId target = *best_it;
    spares_.erase(best_it);
    Replica rep;
    rep.node = target;
    rep.migrating = true;
    stages_[worst].replicas.push_back(std::move(rep));
    stages_[worst].items_since_structural = 0;
    const OpToken token = tokens_.alloc();
    backend_.submit_transfer(token, stages_[worst].replicas.front().node,
                             target, kStageStateBytes);
    ops_.emplace(token, PendingOp{OpKind::Migration, worst,
                                  stages_[worst].replicas.size() - 1, 0});
    ev_.emit(Kind::StageReplicated, target, TaskId::invalid(),
              static_cast<double>(worst), "seeding");
    GRASP_LOG_INFO("pipeline")
        << "stage " << worst << " replicating onto " << target.value << " ("
        << stages_[worst].replicas.size() << " replicas)";
  }

  void consider_adaptation() {
    // Structural replication has its own switch (replicate_imbalance_factor)
    // because it corrects the *program's* shape, not the environment;
    // adaptation_enabled gates the Algorithm-2 monitor/remap loop.
    if ((traits_.actions & kActionReplicateStage) != 0) maybe_replicate();
    if (!params_.adaptation_enabled) return;
    if ((traits_.actions & kActionRemapStage) == 0) return;
    if (report_.remaps >= kMaxRemaps) return;
    if (spares_.empty()) return;
    const MonitorVerdict verdict = exec_monitor_->check(backend_.now());
    if (verdict == MonitorVerdict::None) return;

    // Bottleneck replica: worst observed slowdown vs calibrated fitness.
    std::size_t worst_stage = 0, worst_replica = 0;
    double worst_ratio = 0.0;
    for (std::size_t s = 0; s < depth_; ++s) {
      for (std::size_t r = 0; r < stages_[s].replicas.size(); ++r) {
        const Replica& rep = stages_[s].replicas[r];
        if (rep.latest_spm <= 0.0) continue;
        const double ratio = rep.latest_spm / known_spm(rep.node);
        if (ratio > worst_ratio) {
          worst_ratio = ratio;
          worst_stage = s;
          worst_replica = r;
        }
      }
    }
    StageState& st = stages_[worst_stage];
    const Replica& rep = st.replicas[worst_replica];
    const auto best_it = best_live_spare();
    if (best_it == spares_.end()) return;
    const double current_spm =
        rep.latest_spm > 0.0 ? rep.latest_spm : estimate_spm(rep.node);
    if (estimate_spm(*best_it) * params_.remap_advantage >= current_spm)
      return;  // no spare is convincingly better
    if (st.pending_remap || rep.migrating) return;
    const NodeId target = *best_it;
    spares_.erase(best_it);
    spares_.push_back(rep.node);  // old node becomes a spare
    st.pending_remap = target;
    st.pending_remap_replica = worst_replica;
  }

  void arm_tick() {
    if (!tracker_ || params_.membership_tick.value <= 0.0) return;
    tick_token_ = tokens_.alloc();
    backend_.submit_timer(tick_token_, params_.membership_tick);
  }

  const PipelineParams params_;
  const SkeletonTraits traits_;
  OpPort& backend_;
  const gridsim::Grid& grid_;
  const std::vector<NodeId> pool_;
  const workloads::PipelineSpec& spec_;
  const std::size_t item_count_;
  const std::size_t depth_;
  std::size_t initial_nodes_ = 0;
  const gridsim::ChurnTimeline* const churn_;
  std::vector<NodeId> present_;
  NodeId source_;
  std::optional<resil::MembershipTracker> tracker_;

  PipelineReport report_;
  TokenAllocator tokens_;

  // ---- Observability.  Without a caller-supplied Telemetry the run uses
  // a private detail-disabled instance: counters still drive the report
  // (the report is a registry snapshot), histograms/spans are skipped.
  obs::Telemetry private_telemetry_{/*detail=*/false};
  obs::Telemetry& tel_;
  obs::MetricsRegistry& met_;
  const BackendClock obs_clock_;
  obs::ClockLease clock_lease_;
  resil::ResilienceMetrics rm_;
  // The one emission point for engine events (see obs/emit.hpp).
  obs::Emitter ev_;
  // Whole-registry pre-run baseline: the report delta is one generic
  // subtraction, decoded by metric name (resil::from_snapshot).
  obs::MetricsSnapshot base_snap_;
  obs::HistogramHandle h_item_latency_;
  // Crash flight recorder.
  obs::FlightRecorder* const flight_;

  std::optional<perfmon::MonitorDaemon> monitor_;
  // Nodes the monitor watches; extended when late joiners appear so the
  // load forecasts estimate_spm needs exist for every candidate spare.
  std::vector<NodeId> observed_;

  // ---- Calibration: probe every present node with stage-shaped work. ---
  std::optional<TaskSource> probe_source_;
  std::optional<CalibrationPass> pass_;
  obs::SpanId cal_span_ = 0;

  // Tokens of operations killed by a node loss; their completions are
  // swallowed when the backend delivers them.  Filled from calibration on:
  // a node dying mid-probe surrenders its stalled sample ops here.
  std::unordered_set<OpToken> dead_tokens_;
  // Nodes currently lost to the pool (cleared on rejoin): guards the loss
  // counters against double counting when e.g. a migration target dies
  // mid-transit and the loss is noticed twice.
  std::unordered_set<std::uint64_t> lost_nodes_;
  // Last completion or membership event: the reference point for the
  // down-stage patience window while the liveness tick idles.
  Seconds last_activity_;

  // The initial calibration tolerates a pool that is already churning:
  // losses crossed mid-probe make the pass abandon the corpse (it drops
  // out of the ranking instead of stalling the probe chain for the whole
  // outage), and joiners are parked until the mapping exists, then
  // admitted as spares.
  std::vector<NodeId> newly_dead_cal_;
  std::vector<NodeId> joined_during_cal_;

  std::unordered_map<NodeId, double> cal_spm_, cal_load_;
  // Fallback fitness for nodes that joined after calibration (no sample
  // yet): the pool mean, neither favoured nor penalised.
  double fallback_spm_ = 0.0;

  std::vector<StageState> stages_;
  std::deque<NodeId> spares_;
  std::optional<ExecutionMonitor> exec_monitor_;

  // ---- Streaming state. -------------------------------------------------
  // FlatMaps (support/flat_map.hpp): O(1) find and erase with lazy
  // compaction, no per-element allocation, and iteration in order of last
  // insertion — the deterministic order the loss-handling sweeps below rely
  // on.
  FlatMap<std::uint64_t, ItemState> items_;
  FlatMap<OpToken, PendingOp> ops_;
  std::uint64_t injected_ = 0;
  std::vector<double> latencies_;
  std::vector<std::uint64_t> emission_order_;  // delivered order at the sink
  Seconds last_done_ = Seconds::zero();
  // Submission wave of the current schedule() pass: every receive, compute
  // and migration the pass decides, in decision order, shipped to the
  // backend in one submit_batch call.  Only schedule() (and the remap
  // helper it calls) touch it.
  std::vector<OpRequest> submit_wave_;
  // Liveness tick: a one-shot backend timer, re-armed on every firing, so
  // membership is polled between completions too — a crash that stalls the
  // whole stream is noticed within one period, not at the next completion.
  OpToken tick_token_ = 0;

  Mode mode_ = Mode::Calibrating;
};

}  // namespace

PipelineReport Pipeline::run(Backend& backend, const gridsim::Grid& grid,
                             const std::vector<NodeId>& pool,
                             const workloads::PipelineSpec& spec,
                             std::size_t item_count) {
  const std::unique_ptr<PipelineEngine> run =
      engine(backend, grid, pool, spec, item_count);
  drive(backend, *run);
  return run->take_report();
}

std::unique_ptr<PipelineEngine> Pipeline::engine(
    OpPort& backend, const gridsim::Grid& grid, std::vector<NodeId> pool,
    const workloads::PipelineSpec& spec, std::size_t item_count) const {
  return std::make_unique<PipelineRun>(params_, backend, grid, std::move(pool),
                                       spec, item_count);
}

}  // namespace grasp::core
