// Hierarchical farm engine: sharded coordinators over one event loop.
//
// The whole hierarchy is simulated by a single completion loop, but every
// completion is attributed to exactly one coordinator — the root or one
// sub-farmer — so the report's root_events is precisely the number of
// messages a real root process would have handled.  Costs are honest:
// task inputs travel root -> sub-farmer -> worker (staging is the price
// of the hierarchy), results travel worker -> sub-farmer -> root in
// batches, and monitor aggregates climb the arity-k sub-farmer tree one
// modeled transfer per hop.
#include "core/hier_farm.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <utility>

#include "obs/critical_path.hpp"
#include "obs/emit.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/span.hpp"
#include "resil/chunk_ledger.hpp"
#include "resil/replica_log.hpp"
#include "support/dynamic_bitset.hpp"
#include "support/flat_map.hpp"
#include "support/task_id_set.hpp"

namespace grasp::core {
namespace {

// ------------------------------------------------------------------ tokens
// kind(8) | shard(16) | seq(40): decodable ownership for every operation.
enum class OpKind : std::uint64_t {
  GrantXfer = 1,   // root -> sub-farmer task shipment
  ResultXfer,      // sub-farmer -> root completion batch
  Chunk,           // a chunk's input, compute or output, under one token
  ReduceHop,       // one edge of the monitor aggregation tree
  MonitorTimer,
  LivenessTimer,
  PromoteTimer,
};

constexpr std::uint64_t kKindShift = 56;
constexpr std::uint64_t kShardShift = 40;

[[nodiscard]] OpToken make_token(OpKind kind, std::size_t shard,
                                 std::uint64_t seq) {
  return (static_cast<std::uint64_t>(kind) << kKindShift) |
         (static_cast<std::uint64_t>(shard) << kShardShift) | seq;
}
[[nodiscard]] OpKind token_kind(OpToken token) {
  return static_cast<OpKind>(token >> kKindShift);
}
[[nodiscard]] std::size_t token_shard(OpToken token) {
  return static_cast<std::size_t>((token >> kShardShift) & 0xFFFF);
}

constexpr double kReduceHopBytes = 128.0;  // one folded monitor sample
/// Fan-in of the sub-farmer reduction tree.
constexpr std::size_t kReduceArity = 4;
constexpr double kSpmBlend = 0.5;          // EWMA weight of a new sample

/// Root fan-out ceiling (shard_count_for's max_shards).
constexpr std::size_t kMaxShards = 16;
/// Ceiling on a Grasp chunk, in tasks.
constexpr std::size_t kMaxChunk = 64;
/// The root splits the task set into about this many super-grants in
/// total, independent of scale: each grant is ceil(T / kGrantRounds) tasks
/// and shards pull grants on demand, so a fast shard simply pulls more
/// often.  This is what keeps the root's event rate flat in W.
constexpr std::size_t kGrantRounds = 32;
/// Recalibrate a shard when its observed spm drifts from the calibrated
/// baseline by more than this fraction...
constexpr double kDriftThreshold = 0.5;
/// ...at most this many times per run.
constexpr std::size_t kMaxRecalibrations = 16;

[[nodiscard]] Mops chunk_work(const std::vector<workloads::TaskSpec>& c) {
  Mops total = Mops::zero();
  for (const auto& t : c) total += t.work;
  return total;
}
[[nodiscard]] Bytes chunk_input(const std::vector<workloads::TaskSpec>& c) {
  Bytes total = Bytes::zero();
  for (const auto& t : c) total += t.input;
  return total;
}
[[nodiscard]] Bytes chunk_output(const std::vector<workloads::TaskSpec>& c) {
  Bytes total = Bytes::zero();
  for (const auto& t : c) total += t.output;
  return total;
}

}  // namespace

std::size_t shard_count_for(std::size_t workers,
                            std::size_t workers_per_shard,
                            std::size_t max_shards) {
  if (workers == 0) return 0;
  const std::size_t per = std::max<std::size_t>(1, workers_per_shard);
  const std::size_t want = (workers + per - 1) / per;
  return std::clamp<std::size_t>(want, 1, std::max<std::size_t>(1, max_shards));
}

std::vector<std::vector<NodeId>> plan_shards(
    const std::vector<NodeId>& workers, const std::vector<double>& speeds,
    std::size_t shard_count) {
  if (workers.size() != speeds.size())
    throw std::invalid_argument("plan_shards: workers/speeds size mismatch");
  if (shard_count == 0 || workers.empty()) return {};
  struct Ranked {
    NodeId node;
    double speed;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(workers.size());
  for (std::size_t i = 0; i < workers.size(); ++i)
    ranked.push_back({workers[i], speeds[i]});
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.speed != b.speed) return a.speed > b.speed;
    return a.node.value < b.node.value;
  });
  std::vector<std::vector<NodeId>> shards(
      std::min(shard_count, workers.size()));
  std::vector<double> load(shards.size(), 0.0);
  for (const Ranked& r : ranked) {
    std::size_t lightest = 0;
    for (std::size_t k = 1; k < shards.size(); ++k)
      if (load[k] < load[lightest]) lightest = k;
    shards[lightest].push_back(r.node);
    load[lightest] += r.speed;
  }
  return shards;
}

void HierFarmParams::validate() const {
  if (workers_per_shard == 0)
    throw std::invalid_argument(
        "HierFarm: workers_per_shard must be positive");
  if (chunk_size == 0)
    throw std::invalid_argument("HierFarm: chunk_size must be positive");
  detector.validate();
  // Written to fail on NaN as well: NaN compares false both ways.
  const auto non_negative = [](double v) {
    return std::isfinite(v) && v >= 0.0;
  };
  if (!non_negative(target_chunk_seconds))
    throw std::invalid_argument(
        "HierFarm: target_chunk_seconds must be finite and non-negative");
  if (!non_negative(monitor_period.value))
    throw std::invalid_argument(
        "HierFarm: monitor_period must be finite and non-negative");
  if (!non_negative(promotion_handshake.value))
    throw std::invalid_argument(
        "HierFarm: promotion_handshake must be finite and non-negative");
}

HierFarm::HierFarm(HierFarmParams params) : params_(std::move(params)) {
  params_.validate();
}

HierFarmReport HierFarm::run(Backend& backend, const gridsim::Grid& grid,
                             const std::vector<NodeId>& pool,
                             const workloads::TaskSet& tasks) {
  HierFarmReport report;
  if (tasks.tasks.empty()) return report;

  const Seconds t0 = backend.now();
  const gridsim::ChurnTimeline* churn = grid.churn();
  const bool grasp = params_.mode == HierMode::Grasp;
  const bool resil_on = churn != nullptr;
  // The grid's liveness cursor: every detector beat, shard log flush and
  // zombie test reads it at the loop's clock.
  std::optional<gridsim::LivenessCursor> live;
  if (churn != nullptr) live.emplace(*churn);

  // ----------------------------------------------------------- topology
  const std::vector<NodeId> live0 =
      churn != nullptr ? churn->members_at(pool, t0) : pool;
  if (live0.empty())
    throw std::runtime_error("HierFarm: no pool member is present at t=0");
  const NodeId root = params_.root.is_valid() ? params_.root : pool.front();
  if (std::find(live0.begin(), live0.end(), root) == live0.end())
    throw std::runtime_error("HierFarm: the root is not present at t=0");
  std::vector<NodeId> workers;
  for (NodeId n : live0)
    if (n != root) workers.push_back(n);
  if (workers.empty())
    throw std::runtime_error(
        "HierFarm: the pool needs at least one worker besides the root");

  const std::size_t shard_count = shard_count_for(
      workers.size(), params_.workers_per_shard, kMaxShards);
  std::vector<double> speeds;
  speeds.reserve(workers.size());
  for (NodeId n : workers) speeds.push_back(grid.node(n).base_speed_mops());
  const std::vector<std::vector<NodeId>> plan =
      plan_shards(workers, speeds, shard_count);

  // -------------------------------------------------------- shared state
  obs::Telemetry private_tel(false);
  obs::Telemetry& tel =
      params_.telemetry != nullptr ? *params_.telemetry : private_tel;
  BackendClock clock(backend);
  // Crash flight recorder (non-owning, may be null).
  obs::FlightRecorder* const flight = tel.flight;
  if (flight != nullptr)
    flight->note(t0.value, "run", "hier_begin", root,
                 static_cast<double>(tasks.tasks.size()));

  const std::size_t total = tasks.tasks.size();
  TaskIdSet done;  // tasks whose results reached the root
  const auto is_done = [&](TaskId id) { return done.contains(id); };

  std::deque<workloads::TaskSpec> root_queue(tasks.tasks.begin(),
                                             tasks.tasks.end());
  const std::size_t grant_nominal = (total + kGrantRounds - 1) / kGrantRounds;

  // One chunk in flight.  Its input transfer, compute and output transfer
  // run one after another under the one token it was dispatched with.
  enum class Phase { Input, Compute, Output };
  struct Asg {
    std::size_t shard = 0;
    NodeId node;
    std::vector<workloads::TaskSpec> chunk;
    Seconds dispatched;
    Seconds compute_started;
    Phase phase = Phase::Input;
    /// Order of the last phase change, dispatch included: the order
    /// abandon_inflight surrenders a shard's chunks in.
    std::uint64_t stamp = 0;
    bool is_probe = false;
    obs::SpanId span = 0;
  };
  FlatMap<OpToken, Asg> asg;
  std::uint64_t next_stamp = 0;
  std::unordered_set<OpToken> swallow;  // surrendered tokens still in flight
  FlatMap<OpToken, std::vector<workloads::TaskSpec>> shipments;
  std::uint64_t seq = 1;

  struct Shard {
    NodeId sub;
    std::vector<NodeId> members;  // live, assignment order (sub included)
    std::deque<workloads::TaskSpec> queue;
    std::vector<workloads::TaskSpec> unreported;
    double unreported_bytes = 0.0;
    std::size_t inflight_tasks = 0;
    bool grant_in_flight = false;
    OpToken grant_token = 0;
    std::vector<workloads::TaskSpec> grant_payload;
    bool result_in_flight = false;
    std::size_t last_grant = 0;
    bool promoting = false;
    bool dead = false;
    NodeMap<double> spm{0.0};
    // Per member position: the dispatch pick is a first-set-bit search
    // over these, in member order, instead of a walk over the members.
    DynamicBitset idle;
    DynamicBitset unprobed;
    double cal_spm = 0.0;
    double obs_spm = 0.0;
    bool calibrated = false;
    resil::FailureDetector detector;
    resil::ChunkLedger ledger;
    resil::ReplicaLog log;
    std::size_t initial_workers = 0;
    std::size_t events = 0;
    std::size_t grants = 0;
    std::size_t completed = 0;
    std::size_t promotions = 0;
    std::size_t redispatched = 0;
    std::size_t probe_tasks = 0;
    obs::SpanRecorder spans;

    explicit Shard(resil::FailureDetector::Params det) : detector(det) {}
  };
  // Member position of every node in its shard's `members` (each node
  // belongs to at most one shard); npos once dropped.
  constexpr std::size_t kNoPos = DynamicBitset::npos;
  NodeMap<std::size_t> member_pos{kNoPos};
  const auto drop_member = [&](Shard& sh, NodeId n) {
    const std::size_t p = member_pos.at_or_default(n);
    if (p == kNoPos) return;
    member_pos[n] = kNoPos;
    sh.members.erase(sh.members.begin() + static_cast<std::ptrdiff_t>(p));
    sh.idle.erase(p);
    sh.unprobed.erase(p);
    for (std::size_t i = p; i < sh.members.size(); ++i)
      member_pos[sh.members[i]] = i;
  };
  const auto mark_idle = [&](Shard& sh, NodeId n) {
    if (const std::size_t p = member_pos.at_or_default(n); p != kNoPos)
      sh.idle.set(p);
  };

  using Kind = gridsim::TraceEventKind;
  // Reserved up front and never reallocated: each shard's emitter (the one
  // emission point for its events, see obs/emit.hpp) points at its spans.
  std::vector<Shard> shards;
  shards.reserve(plan.size());
  std::vector<obs::Emitter> shard_ev;
  shard_ev.reserve(plan.size());
  resil::FailureDetector root_det(params_.detector);
  // Top shard k's standbys back up to standby_count: lowest-id members
  // first, deterministic across runs.
  const auto recruit_standby = [&](std::size_t k) {
    Shard& sh = shards[k];
    std::vector<NodeId> by_id = sh.members;
    std::sort(by_id.begin(), by_id.end());
    for (NodeId m : by_id) {
      if (sh.log.replica_count() >= params_.standby_count) return;
      if (m == sh.sub || sh.log.has_replica(m)) continue;
      sh.log.add_replica(m);
      shard_ev[k].emit(Kind::StandbyRecruited, m, TaskId::invalid(),
                       static_cast<double>(k));
    }
  };
  for (std::size_t k = 0; k < plan.size(); ++k) {
    Shard& sh = shards.emplace_back(params_.detector);
    sh.spans.set_clock(&clock);
    sh.spans.set_enabled(tel.detail_enabled());
    shard_ev.emplace_back(clock, report.trace, sh.spans, tel.flight);
    sh.members = plan[k];
    sh.initial_workers = sh.members.size();
    for (std::size_t i = 0; i < sh.members.size(); ++i)
      member_pos[sh.members[i]] = i;
    sh.idle.assign(sh.members.size(), true);
    sh.unprobed.assign(sh.members.size(), true);
    sh.sub = sh.members.front();
    // Without churn nothing ever reads the detectors or the ledgers.
    if (resil_on) {
      for (NodeId m : sh.members)
        if (m != sh.sub) sh.detector.watch(m, t0);
      root_det.watch(sh.sub, t0);
    }
    recruit_standby(k);
    if (grasp)
      shard_ev[k].emit(Kind::CalibrationStarted, sh.sub, TaskId::invalid(),
                       static_cast<double>(k));
  }
  report.shards = shards.size();

  // ------------------------------------------------------------ counters
  std::size_t root_events = 0, shard_events = 0, grants_total = 0;
  std::size_t calibration_tasks = 0, recalibrations = 0;
  std::size_t redispatched_total = 0, zombies = 0;
  std::size_t monitor_rounds = 0, reduction_messages = 0;
  bool finished = false;
  Seconds finish_time = t0;

  // -------------------------------------------------- monitor reduction
  struct Reduction {
    bool active = false;
    std::vector<std::size_t> positions;  // shard indices, tree order
    std::vector<std::size_t> pending;    // children not yet folded
  };
  Reduction red;
  FlatMap<OpToken, std::size_t> red_dest;  // hop -> receiver position
  constexpr std::size_t kRedRoot = static_cast<std::size_t>(-1);

  OpToken monitor_token = 0, liveness_token = 0;

  const auto now_s = [&] { return backend.now(); };

  // ---------------------------------------------------- chunk size policy
  const auto chunk_len = [&](const Shard& sh, NodeId node) -> std::size_t {
    const double spm = sh.spm.at_or_default(node);
    if (!grasp || spm <= 0.0) return params_.chunk_size;
    std::size_t n = 0;
    double secs = 0.0;
    for (const auto& t : sh.queue) {
      if (n >= kMaxChunk) break;
      if (n > 0 && secs >= params_.target_chunk_seconds) break;
      secs += t.work.value * spm;
      ++n;
    }
    return std::max<std::size_t>(1, n);
  };

  // ------------------------------------------------------ forward decls
  std::function<void(std::size_t)> dispatch_shard, maybe_grant, maybe_ship;

  maybe_grant = [&](std::size_t k) {
    Shard& sh = shards[k];
    if (sh.dead || sh.promoting || sh.grant_in_flight || root_queue.empty())
      return;
    std::size_t nominal = grant_nominal;
    // The first Grasp grant must cover one probe task per member.
    if (grasp && sh.grants == 0)
      nominal = std::max(nominal, sh.members.size());
    const std::size_t local = sh.queue.size() + sh.inflight_tasks;
    if (sh.grants > 0 && local > nominal / 2) return;
    const std::size_t g = std::min(nominal, root_queue.size());
    if (g == 0) return;
    std::vector<workloads::TaskSpec> payload;
    payload.reserve(g);
    for (std::size_t i = 0; i < g; ++i) {
      payload.push_back(root_queue.front());
      root_queue.pop_front();
    }
    const OpToken token = make_token(OpKind::GrantXfer, k, seq++);
    backend.submit_transfer(token, root, sh.sub,
                            chunk_input(payload));
    sh.grant_in_flight = true;
    sh.grant_token = token;
    sh.grant_payload = std::move(payload);
    sh.last_grant = g;
    ++sh.grants;
    ++grants_total;
  };

  dispatch_shard = [&](std::size_t k) {
    Shard& sh = shards[k];
    if (sh.dead || sh.promoting) return;
    std::vector<OpRequest> wave;
    while (!sh.queue.empty()) {
      // Un-probed members calibrate before anything else; otherwise the
      // first idle member in member order.
      std::size_t p = grasp ? sh.idle.find_first_and(sh.unprobed) : kNoPos;
      const bool probe = p != kNoPos;
      if (!probe) p = sh.idle.find_first();
      if (p == kNoPos) break;
      sh.idle.reset(p);
      const NodeId picked = sh.members[p];
      const std::size_t len = probe ? 1 : chunk_len(sh, picked);
      std::vector<workloads::TaskSpec> chunk;
      chunk.reserve(len);
      for (std::size_t i = 0; i < len && !sh.queue.empty(); ++i) {
        chunk.push_back(sh.queue.front());
        sh.queue.pop_front();
      }
      const OpToken token = make_token(OpKind::Chunk, k, seq++);
      const Seconds now = now_s();
      wave.push_back(
          OpRequest::transfer(token, sh.sub, picked, chunk_input(chunk)));
      // Only crash handling reads the ledger, only the liveness tick
      // flushes the log and only a promotion reads it: without resilience
      // there is nothing to record or replicate.
      if (resil_on) {
        sh.ledger.record(token, {picked, chunk, now, chunk_work(chunk)});
        sh.log.append({resil::ReplicaRecordKind::Assign, token, picked, 0, 0,
                       0.0, {}});
      }
      sh.inflight_tasks += chunk.size();
      shard_ev[k].emit(Kind::TaskDispatched, picked, chunk.front().id,
                       static_cast<double>(chunk.size()));
      Asg a;
      a.shard = k;
      a.node = picked;
      a.dispatched = now;
      a.stamp = next_stamp++;
      a.is_probe = probe;
      a.span = sh.spans.begin(probe ? "probe" : "chunk", 0, picked,
                              chunk.front().id, chunk_work(chunk).value);
      a.chunk = std::move(chunk);
      asg.emplace(token, std::move(a));
    }
    if (!wave.empty()) backend.submit_batch(std::move(wave));
    maybe_grant(k);
  };

  maybe_ship = [&](std::size_t k) {
    Shard& sh = shards[k];
    if (sh.dead || sh.promoting || sh.result_in_flight ||
        sh.unreported.empty())
      return;
    const bool flush_all = sh.queue.empty() && sh.inflight_tasks == 0;
    const std::size_t floor = std::max<std::size_t>(1, sh.last_grant / 2);
    if (!flush_all && sh.unreported.size() < floor) return;
    const OpToken token = make_token(OpKind::ResultXfer, k, seq++);
    backend.submit_transfer(token, sh.sub, root,
                            Bytes{sh.unreported_bytes});
    shipments.emplace(token, std::move(sh.unreported));
    sh.unreported.clear();
    sh.unreported_bytes = 0.0;
    sh.result_in_flight = true;
  };

  // Requeue a surrendered chunk's unfinished tasks at the front of the
  // shard queue (reverse push keeps task order) and account the loss.
  const auto requeue_lost = [&](std::size_t k,
                                const resil::ChunkLedger::Entry& e,
                                NodeId node) {
    Shard& sh = shards[k];
    std::size_t back = 0;
    for (auto it = e.tasks.rbegin(); it != e.tasks.rend(); ++it) {
      if (is_done(it->id)) continue;
      sh.queue.push_front(*it);
      ++back;
    }
    if (back > 0) {
      sh.redispatched += back;
      redispatched_total += back;
      shard_ev[k].emit(Kind::ChunkRedispatched, node, e.tasks.front().id,
                       static_cast<double>(back));
    }
  };

  const auto check_calibrated = [&](std::size_t k) {
    Shard& sh = shards[k];
    if (!grasp || sh.calibrated || sh.unprobed.any()) return;
    double cap = 0.0;
    for (NodeId m : sh.members)
      if (sh.spm[m] > 0.0) cap += 1.0 / sh.spm[m];
    sh.calibrated = true;
    sh.cal_spm = sh.members.empty() ? 0.0 : cap > 0.0
                     ? static_cast<double>(sh.members.size()) / cap
                     : 0.0;
    sh.obs_spm = sh.cal_spm;
    shard_ev[k].emit(Kind::CalibrationFinished, sh.sub, TaskId::invalid(),
                     static_cast<double>(k));
  };

  const auto abort_reduction = [&] {
    if (!red.active) return;
    for (const auto& [token, dest] : red_dest) swallow.insert(token);
    red_dest.clear();
    red.active = false;
  };

  const auto worker_crash = [&](std::size_t k, NodeId w) {
    Shard& sh = shards[k];
    shard_ev[k].emit(Kind::NodeCrashDetected, w, TaskId::invalid(),
                     static_cast<double>(k));
    sh.detector.unwatch(w);
    drop_member(sh, w);
    auto lost = sh.ledger.fail_node(w, is_done);
    for (auto& [token, entry] : lost) {
      if (auto [found, a] = asg.take(token); found)
        sh.spans.end(a.span, 0.0, "lost");
      swallow.insert(token);
      sh.inflight_tasks -= std::min(sh.inflight_tasks, entry.tasks.size());
      requeue_lost(k, entry, w);
    }
    if (sh.log.has_replica(w)) {
      sh.log.remove_replica(w);
      recruit_standby(k);
    }
    check_calibrated(k);  // a dead un-probed member no longer gates it
    dispatch_shard(k);
    maybe_ship(k);
  };

  // Abandon every chunk shard k has in flight (its coordinator is gone, so
  // the results have nowhere to land): requeue the unfinished tasks locally,
  // in order of last phase change, and swallow the tokens.
  const auto abandon_inflight = [&](std::size_t k) {
    Shard& sh = shards[k];
    std::vector<std::pair<std::uint64_t, OpToken>> mine;
    for (const auto& [tok, a] : asg)
      if (a.shard == k) mine.emplace_back(a.stamp, tok);
    std::sort(mine.begin(), mine.end());
    for (const auto& [stamp, token] : mine) {
      if (auto entry = sh.ledger.invalidate(token, is_done); entry)
        requeue_lost(k, *entry, entry->node);
      if (auto [found, a] = asg.take(token); found)
        sh.spans.end(a.span, 0.0, "lost");
      swallow.insert(token);
    }
    sh.inflight_tasks = 0;
  };

  // A grant still flying toward shard k's dead coordinator returns to the
  // front of the root queue.
  const auto return_grant = [&](std::size_t k) {
    Shard& sh = shards[k];
    if (!sh.grant_in_flight) return;
    swallow.insert(sh.grant_token);
    for (auto it = sh.grant_payload.rbegin(); it != sh.grant_payload.rend();
         ++it)
      root_queue.push_front(*it);
    sh.grant_payload.clear();
    sh.grant_in_flight = false;
  };

  const auto shard_dead = [&](std::size_t k) {
    Shard& sh = shards[k];
    sh.dead = true;
    // Reclaim everything this shard still owed: in-flight chunks, its
    // local queue, completions never reported, and any grant on the wire.
    abandon_inflight(k);
    for (auto it = sh.queue.rbegin(); it != sh.queue.rend(); ++it)
      root_queue.push_front(*it);
    sh.queue.clear();
    for (auto it = sh.unreported.rbegin(); it != sh.unreported.rend(); ++it) {
      if (is_done(it->id)) continue;
      root_queue.push_front(*it);
      shard_ev[k].emit(Kind::TaskResultLost, sh.sub, it->id);
    }
    sh.unreported.clear();
    sh.unreported_bytes = 0.0;
    return_grant(k);
    root_det.unwatch(sh.sub);
    for (std::size_t j = 0; j < shards.size(); ++j)
      if (!shards[j].dead) maybe_grant(j);
  };

  const auto sub_crash = [&](std::size_t k) {
    Shard& sh = shards[k];
    const NodeId dead_sub = sh.sub;
    const Seconds now = now_s();
    shard_ev[k].emit(Kind::FarmerCrashDetected, dead_sub, TaskId::invalid(),
                     static_cast<double>(k));
    root_det.unwatch(dead_sub);
    drop_member(sh, dead_sub);
    abort_reduction();  // the round routed through a corpse; drop it

    // Promotion candidate: the best-caught-up live standby (watermark
    // descending, id ascending); any live member as a last resort.
    NodeId promoted = NodeId::invalid();
    std::uint64_t best_mark = 0;
    for (NodeId s : sh.log.replicas()) {
      if (member_pos.at_or_default(s) == kNoPos) continue;  // dropped
      const std::uint64_t mark = sh.log.watermark(s);
      if (!promoted.is_valid() || mark > best_mark ||
          (mark == best_mark && s.value < promoted.value)) {
        promoted = s;
        best_mark = mark;
      }
    }
    if (!promoted.is_valid()) {
      std::vector<NodeId> by_id = sh.members;
      std::sort(by_id.begin(), by_id.end());
      if (!by_id.empty()) promoted = by_id.front();
    }
    if (!promoted.is_valid()) {
      shard_dead(k);
      return;
    }

    // Every in-flight chunk was coordinated by the dead sub-farmer.
    abandon_inflight(k);
    sh.idle.assign(sh.members.size(), true);
    return_grant(k);
    // A result batch already on the wire left before the crash; it is
    // delivered normally and the root dedupes.

    // Roll the log back to the promoted standby's durable prefix: every
    // completion above the watermark died un-replicated — retract it,
    // charge the result as lost, and requeue the task (suffix-only: the
    // flushed prefix survives on the standby and is NOT re-run).
    std::unordered_set<TaskId> retracted;
    sh.log.rollback_to(
        sh.log.watermark(promoted), [&](const resil::ReplicaLog::Record& r) {
          if (r.kind != resil::ReplicaRecordKind::Complete) return;
          for (auto it = r.tasks.rbegin(); it != r.tasks.rend(); ++it) {
            if (is_done(it->id)) continue;
            sh.queue.push_front(*it);
            retracted.insert(it->id);
            shard_ev[k].emit(Kind::TaskResultLost, dead_sub, it->id);
          }
        });
    if (!retracted.empty()) {
      std::vector<workloads::TaskSpec> keep;
      double bytes = 0.0;
      for (auto& t : sh.unreported) {
        if (retracted.count(t.id) != 0) continue;
        bytes += t.output.value;
        keep.push_back(t);
      }
      sh.unreported = std::move(keep);
      sh.unreported_bytes = bytes;
    }

    sh.log.remove_replica(promoted);  // the new authority shadows nobody
    sh.sub = promoted;
    ++sh.promotions;
    // The new coordinator starts a fresh watch over its peers.
    sh.detector = resil::FailureDetector(params_.detector);
    for (NodeId m : sh.members)
      if (m != promoted) sh.detector.watch(m, now);
    root_det.watch(promoted, now);
    recruit_standby(k);
    shard_ev[k].emit(Kind::FarmerPromoted, promoted, TaskId::invalid(),
                     params_.promotion_handshake.value);
    sh.promoting = true;
    backend.submit_timer(make_token(OpKind::PromoteTimer, k, seq++),
                         params_.promotion_handshake);
  };

  // ------------------------------------------------- monitor aggregation
  const auto send_hop = [&](std::size_t pos) {
    const NodeId from = shards[red.positions[pos]].sub;
    if (pos == 0) {
      const OpToken token = make_token(OpKind::ReduceHop, 0, seq++);
      backend.submit_transfer(token, from, root, Bytes{kReduceHopBytes});
      red_dest.emplace(token, kRedRoot);
    } else {
      const std::size_t parent = tree_parent(pos, kReduceArity);
      const OpToken token = make_token(OpKind::ReduceHop, 0, seq++);
      backend.submit_transfer(token, from, shards[red.positions[parent]].sub,
                              Bytes{kReduceHopBytes});
      red_dest.emplace(token, parent);
    }
    ++reduction_messages;
  };

  const auto start_reduction = [&] {
    if (red.active) return;
    red.positions.clear();
    for (std::size_t k = 0; k < shards.size(); ++k)
      if (!shards[k].dead && !shards[k].promoting) red.positions.push_back(k);
    if (red.positions.empty()) return;
    red.active = true;
    red.pending.assign(red.positions.size(), 0);
    for (std::size_t p = 0; p < red.positions.size(); ++p)
      red.pending[p] = tree_child_count(p, red.positions.size(), kReduceArity);
    for (std::size_t p = 0; p < red.positions.size(); ++p)
      if (red.pending[p] == 0) send_hop(p);
  };

  const auto evaluate_round = [&] {
    ++monitor_rounds;
    if (!grasp) return;
    for (std::size_t k : red.positions) {
      Shard& sh = shards[k];
      if (sh.dead || !sh.calibrated || sh.cal_spm <= 0.0 || sh.obs_spm <= 0.0)
        continue;
      const double drift = std::abs(sh.obs_spm / sh.cal_spm - 1.0);
      if (drift > kDriftThreshold && recalibrations < kMaxRecalibrations) {
        ++recalibrations;
        sh.calibrated = false;
        sh.unprobed.assign(sh.members.size(), true);
        shard_ev[k].emit(Kind::RecalibrationTriggered, sh.sub,
                         TaskId::invalid(), drift);
        shard_ev[k].emit(Kind::CalibrationStarted, sh.sub, TaskId::invalid(),
                         static_cast<double>(k));
        dispatch_shard(k);
      }
    }
  };

  // --------------------------------------------------------- timer setup
  const auto arm_monitor = [&] {
    if (!grasp || params_.monitor_period.value <= 0.0 || finished) return;
    monitor_token = make_token(OpKind::MonitorTimer, 0, seq++);
    backend.submit_timer(monitor_token, params_.monitor_period);
  };
  const auto arm_liveness = [&] {
    if (!resil_on || finished) return;
    liveness_token = make_token(OpKind::LivenessTimer, 0, seq++);
    backend.submit_timer(liveness_token, params_.detector.heartbeat_period);
  };

  const auto liveness_tick = [&] {
    const Seconds now = now_s();
    for (std::size_t k = 0; k < shards.size(); ++k) {
      Shard& sh = shards[k];
      if (sh.dead) continue;
      sh.detector.advance(now, *live);
      for (NodeId w : sh.detector.suspects(now)) worker_crash(k, w);
      sh.log.flush(*live, now);
      ++sh.events;  // the sub-farmer ran its own tick
      ++shard_events;
    }
    root_det.advance(now, *live);
    for (NodeId s : root_det.suspects(now)) {
      for (std::size_t k = 0; k < shards.size(); ++k)
        if (!shards[k].dead && shards[k].sub == s) {
          sub_crash(k);
          break;
        }
    }
    bool any_live = false;
    for (const Shard& sh : shards)
      if (!sh.dead) any_live = true;
    if (!any_live && done.size() < total)
      throw std::runtime_error(
          "HierFarm: every shard was lost with tasks remaining");
  };

  // ---------------------------------------------------------- bootstrap
  arm_monitor();
  arm_liveness();
  for (std::size_t k = 0; k < shards.size(); ++k) maybe_grant(k);

  // --------------------------------------------------------- event loop
  while (done.size() < total) {
    const auto c = backend.wait_next();
    if (!c)
      throw std::runtime_error(
          "HierFarm: deadlock — tasks remain but nothing is in flight");
    const OpToken token = c->token;
    if (swallow.erase(token) != 0) {
      ++zombies;
      continue;
    }
    const OpKind kind = token_kind(token);
    const Seconds now = now_s();

    switch (kind) {
      case OpKind::MonitorTimer: {
        ++root_events;
        if (token != monitor_token) break;  // a cancelled ghost
        monitor_token = 0;
        if (!red.active) start_reduction();
        arm_monitor();
        break;
      }
      case OpKind::LivenessTimer: {
        ++root_events;
        if (token != liveness_token) break;
        liveness_token = 0;
        liveness_tick();
        arm_liveness();
        break;
      }
      case OpKind::PromoteTimer: {
        const std::size_t k = token_shard(token);
        Shard& sh = shards[k];
        if (sh.dead) break;
        ++sh.events;
        ++shard_events;
        sh.promoting = false;
        dispatch_shard(k);
        maybe_ship(k);
        break;
      }
      case OpKind::GrantXfer: {
        const std::size_t k = token_shard(token);
        Shard& sh = shards[k];
        ++sh.events;
        ++shard_events;
        sh.grant_in_flight = false;
        for (auto& t : sh.grant_payload) sh.queue.push_back(std::move(t));
        sh.grant_payload.clear();
        dispatch_shard(k);
        break;
      }
      case OpKind::ResultXfer: {
        ++root_events;
        const std::size_t k = token_shard(token);
        auto [found, ship] = shipments.take(token);
        if (found) {
          for (const auto& t : ship)
            if (done.insert(t.id))
              shard_ev[k].emit(Kind::TaskCompleted, shards[k].sub, t.id);
        }
        Shard& sh = shards[k];
        sh.result_in_flight = false;
        if (!sh.dead) {
          maybe_ship(k);
          maybe_grant(k);
        }
        break;
      }
      case OpKind::ReduceHop: {
        auto [found, dest] = red_dest.take(token);
        if (!found || !red.active) break;
        if (dest == kRedRoot) {
          ++root_events;
          red.active = false;
          evaluate_round();
        } else {
          Shard& sh = shards[red.positions[dest]];
          ++sh.events;
          ++shard_events;
          if (red.pending[dest] > 0 && --red.pending[dest] == 0)
            send_hop(dest);
        }
        break;
      }
      case OpKind::Chunk: {
        const std::size_t k = token_shard(token);
        Shard& sh = shards[k];
        ++sh.events;
        ++shard_events;
        Asg* a = asg.find(token);
        if (a == nullptr) break;  // surrendered between submit and delivery
        // Zombie test: the chunk's holder died inside the dispatch window;
        // physically the work never finished.
        if (churn != nullptr &&
            live->crashed_during(a->node, a->dispatched, now)) {
          ++zombies;
          if (auto entry = sh.ledger.invalidate(token, is_done); entry) {
            sh.inflight_tasks -=
                std::min(sh.inflight_tasks, entry->tasks.size());
            requeue_lost(k, *entry, a->node);
          }
          sh.spans.end(a->span, 0.0, "zombie");
          mark_idle(sh, a->node);
          asg.erase(token);
          dispatch_shard(k);
          break;
        }
        // The next phase runs under the same token; the chunk's records
        // change in place.
        if (a->phase == Phase::Input) {
          a->phase = Phase::Compute;
          a->stamp = next_stamp++;
          a->compute_started = now;
          if (resil_on) sh.ledger.advance(token);
          backend.submit_compute(token, a->node, chunk_work(a->chunk));
        } else if (a->phase == Phase::Compute) {
          const double work = chunk_work(a->chunk).value;
          const double sample =
              work > 0.0 ? (now - a->compute_started).value / work : 0.0;
          if (sample > 0.0) {
            const double prev = sh.spm[a->node];
            sh.spm[a->node] =
                prev > 0.0 ? (1.0 - kSpmBlend) * prev + kSpmBlend * sample
                           : sample;
            if (a->is_probe) {
              if (const std::size_t p = member_pos.at_or_default(a->node);
                  p != kNoPos)
                sh.unprobed.reset(p);
              sh.probe_tasks += a->chunk.size();
              calibration_tasks += a->chunk.size();
              check_calibrated(k);
            } else if (sh.obs_spm > 0.0) {
              sh.obs_spm =
                  (1.0 - kSpmBlend) * sh.obs_spm + kSpmBlend * sample;
            } else {
              sh.obs_spm = sample;
            }
          }
          a->phase = Phase::Output;
          a->stamp = next_stamp++;
          if (resil_on) sh.ledger.advance(token);
          backend.submit_transfer(token, a->node, sh.sub,
                                  chunk_output(a->chunk));
        } else {  // Output: the chunk is home
          auto [found, fin] = asg.take(token);
          if (resil_on) {
            (void)sh.ledger.complete(token);
            sh.log.append({resil::ReplicaRecordKind::Complete, token,
                           fin.node, 0, 0, chunk_output(fin.chunk).value,
                           fin.chunk});
          }
          sh.inflight_tasks -=
              std::min(sh.inflight_tasks, fin.chunk.size());
          mark_idle(sh, fin.node);
          sh.completed += fin.chunk.size();
          sh.spans.end(fin.span, static_cast<double>(fin.chunk.size()),
                       "complete");
          for (auto& t : fin.chunk) {
            sh.unreported_bytes += t.output.value;
            sh.unreported.push_back(std::move(t));
          }
          dispatch_shard(k);
          maybe_ship(k);
        }
        break;
      }
    }
  }

  finished = true;
  finish_time = backend.now();
  if (monitor_token != 0) backend.cancel_timer(monitor_token);
  if (liveness_token != 0) backend.cancel_timer(liveness_token);
  // Drain: late shipments, abandoned twins, ops stranded on dead nodes
  // (those live in `swallow` and may never complete — stop when only they
  // remain in flight).
  while (backend.in_flight() > swallow.size()) {
    const auto c = backend.wait_next();
    if (!c) break;
    swallow.erase(c->token);
  }

  // -------------------------------------------------------------- report
  report.makespan = finish_time - t0;
  report.tasks_completed =
      done.size() - std::min(done.size(), calibration_tasks);
  report.calibration_tasks = calibration_tasks;
  report.root_events = root_events;
  report.shard_events = shard_events;
  report.monitor_rounds = monitor_rounds;
  report.reduction_messages = reduction_messages;
  report.recalibrations = recalibrations;
  report.promotions = report.trace.count(Kind::FarmerPromoted);
  report.redispatched = redispatched_total;
  report.results_lost = report.trace.count(Kind::TaskResultLost);
  report.zombie_completions = zombies;
  for (std::size_t k = 0; k < shards.size(); ++k) {
    const Shard& sh = shards[k];
    ShardSummary s;
    s.sub_farmer = sh.sub;
    s.workers = sh.initial_workers;
    s.tasks_completed = sh.completed;
    s.grants = sh.grants;
    s.events = sh.events;
    s.promotions = sh.promotions;
    s.redispatched = sh.redispatched;
    double cap = 0.0;
    for (NodeId m : sh.members) {
      const double spm = sh.spm.at_or_default(m);
      if (spm > 0.0) cap += 1.0 / spm;
    }
    s.capacity_mops = cap;
    report.shard_summaries.push_back(s);
  }

  // Telemetry: root-level block plus per-shard scoped imports.
  obs::MetricsRegistry& met = tel.metrics;
  met.set_counter(met.counter("hier.root_events"), root_events);
  met.set_counter(met.counter("hier.shard_events"), shard_events);
  met.set_counter(met.counter("hier.grants"), grants_total);
  met.set_counter(met.counter("hier.monitor_rounds"), monitor_rounds);
  met.set_counter(met.counter("hier.promotions"), report.promotions);
  met.set_counter(met.counter("hier.redispatched"), redispatched_total);
  met.set_counter(met.counter("hier.shards"), shards.size());
  met.set(met.gauge("hier.makespan_s"), report.makespan.value);
  for (std::size_t k = 0; k < shards.size(); ++k) {
    const Shard& sh = shards[k];
    obs::MetricsSnapshot snap;
    snap.counters = {{"events", sh.events},
                     {"grants", sh.grants},
                     {"tasks_completed", sh.completed},
                     {"promotions", sh.promotions},
                     {"redispatched", sh.redispatched},
                     {"probe_tasks", sh.probe_tasks}};
    snap.gauges = {{"capacity_mops", report.shard_summaries[k].capacity_mops}};
    met.import_scoped("shard." + std::to_string(k) + ".", snap);
    if (tel.detail_enabled())
      tel.spans.import_tree("shard", t0.value, finish_time.value,
                            static_cast<double>(k), sh.spans.records());
  }
  // Post-run blame diagnosis over the merged tree (root spans + grafted
  // shard subtrees): per-cause seconds, per-shard groups, obs.blame.*
  // gauges.  Detail tier only — without spans there is nothing to walk.
  if (met.enabled() && !tel.spans.records().empty())
    obs::publish_blame(
        obs::analyze_blame(tel.spans.records(), finish_time.value), met);
  if (flight != nullptr)
    flight->note(finish_time.value, "run", "hier_end", root,
                 static_cast<double>(report.tasks_completed));
  return report;
}

}  // namespace grasp::core
