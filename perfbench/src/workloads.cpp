#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <optional>

#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "core/hier_farm.hpp"
#include "core/task_farm.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/telemetry.hpp"
#include "support/rng.hpp"
#include "svc/grid_service.hpp"
#include "workloads/applications.hpp"
#include "workloads/generators.hpp"

namespace grasp::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Call `make`, adding its host time to `acc` and a span to `spans`.
template <typename F>
auto timed(double& acc, obs::SpanRecorder* spans, obs::SpanId parent,
           const char* name, F&& make) {
  const HostSpan span(spans, name, parent);
  const Clock::time_point t0 = Clock::now();
  auto result = make();
  acc += seconds_since(t0);
  return result;
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

workloads::TaskSet lognormal_tasks(std::size_t count, double mean_mops,
                                   double cv, std::uint64_t seed) {
  workloads::TaskSetParams p;
  p.count = count;
  p.mean_mops = mean_mops;
  p.cv = cv;
  p.distribution = workloads::CostDistribution::LogNormal;
  p.seed = seed;
  return workloads::make_task_set(p);
}

/// Engine-call bracket shared by the workloads: the optional backend
/// decorator, the optional detail telemetry, host time and span.
class EngineCall {
 public:
  EngineCall(const Probe& probe, core::Backend& sim)
      : probe_(probe), sim_(sim) {
    if (probe.backend != nullptr) timed_.emplace(sim);
    if (probe.telemetry) telemetry_.emplace(/*detail=*/true);
  }

  [[nodiscard]] core::Backend& backend() {
    return timed_ ? static_cast<core::Backend&>(*timed_) : sim_;
  }
  [[nodiscard]] obs::Telemetry* telemetry() {
    return telemetry_ ? &*telemetry_ : nullptr;
  }

  /// Run `call` as one timed layer call named `name`.
  template <typename F>
  void run(const char* name, F&& call) {
    const HostSpan span(probe_.host_spans, name, probe_.parent);
    const Clock::time_point t0 = Clock::now();
    call();
    call_s_ += seconds_since(t0);
  }

  /// Add the engine calls' host time to `out`, fold the decorator's
  /// counters into the probe and, with telemetry, blame the recorded spans
  /// over [0, window_s] (skipped for a failed run, window_s <= 0).
  void finish(Outcome& out, double window_s) {
    out.engine_call_s += call_s_;
    if (timed_) {
      const BackendCounters& c = timed_->counters();
      probe_.backend->calls += c.calls;
      probe_.backend->events += c.events;
      probe_.backend->ns += c.ns;
    }
    if (!telemetry_ || window_s <= 0.0) return;
    const std::vector<obs::SpanRecord>& spans = telemetry_->spans.records();
    const HostSpan span(probe_.host_spans, "obs.analyze_blame",
                        probe_.parent);
    const Clock::time_point t0 = Clock::now();
    out.blame += obs::analyze_blame(spans, window_s).total;
    out.blame_host_s += seconds_since(t0);
    out.blame_window_s += window_s;
    out.spans += static_cast<double>(spans.size());
  }

 private:
  const Probe& probe_;
  core::Backend& sim_;
  std::optional<TimedBackend> timed_;
  std::optional<obs::Telemetry> telemetry_;
  double call_s_ = 0.0;
};

/// Exactly-once conservation of one engine run: every task completed once,
/// as a normal or a calibration completion, net of retracted results.
template <typename Report>
bool conserves(const Report& r, std::size_t total) {
  return r.tasks_completed + r.calibration_tasks == total &&
         r.trace.count(gridsim::TraceEventKind::TaskCompleted) ==
             total + r.trace.count(gridsim::TraceEventKind::TaskResultLost);
}

// ------------------------------------------------------------ farm_churn

/// e13's grasp-elastic variant with one hot standby farmer.
core::FarmParams churn_farm_params() {
  core::FarmParams p = core::make_adaptive_farm_params();
  p.chunk_size = 4;
  p.resilience.enabled = true;
  p.resilience.detector.heartbeat_period = Seconds{1.0};
  p.resilience.detector.timeout = Seconds{5.0};
  p.resilience.checkpoint_period = Seconds{8.0};
  p.resilience.failover.standby_count = 1;
  p.resilience.failover.handshake = Seconds{2.0};
  return p;
}

class FarmChurn final : public Workload {
 public:
  // 200 scenarios of ~3 ms host time each: one pass lasts long enough that
  // per-scenario jitter averages out, and 200 makespans put ten samples
  // beyond the p95.
  static constexpr std::size_t kScenarios = 200;
  static constexpr std::size_t kTasks = 2000;

  FarmChurn(std::uint64_t seed, SetupTimes& times, obs::SpanRecorder* spans,
            obs::SpanId parent)
      : params_(churn_farm_params()) {
    SplitMix64 seeds(seed);
    scenarios_.reserve(kScenarios);
    for (std::size_t i = 0; i < kScenarios; ++i) {
      gridsim::ChurnScenarioParams cp;
      cp.grid.node_count = 16;
      cp.grid.sites = 2;
      cp.grid.dynamics = gridsim::Dynamics::Stable;
      cp.grid.seed = 71;
      cp.spare_nodes = 4;
      cp.mtbf = 300.0;
      cp.crash_fraction = 0.75;
      cp.rejoin_probability = 0.7;
      cp.rejoin_delay = Seconds{60.0};
      cp.horizon = Seconds{600.0};
      cp.warmup = Seconds{30.0};
      cp.churn_seed = seeds.next();
      gridsim::Grid grid =
          timed(times.grid_s, spans, parent, "gen.make_churn_grid",
                [&] { return gridsim::make_churn_grid(cp); });
      const std::uint64_t task_seed = seeds.next();
      workloads::TaskSet tasks =
          timed(times.tasks_s, spans, parent, "gen.make_task_set", [&] {
            return lognormal_tasks(kTasks, 120.0, 1.0, task_seed);
          });
      scenarios_.push_back({std::move(grid), std::move(tasks)});
    }
  }

  [[nodiscard]] Outcome run_pass(const Probe& probe) const override {
    Outcome out;
    for (const Scenario& sc : scenarios_) {
      ++out.attempted;
      core::SimBackend sim(sc.grid);
      EngineCall call(probe, sim);
      core::FarmParams p = params_;
      p.telemetry = call.telemetry();
      std::optional<core::FarmReport> r;
      try {
        call.run("engine.TaskFarm::run", [&] {
          r = core::TaskFarm(p).run(call.backend(), sc.grid,
                                    sc.grid.node_ids(), sc.tasks);
        });
      } catch (const std::exception&) {
        r.reset();
      }
      if (!r || !conserves(*r, sc.tasks.size())) {
        ++out.failed;
        call.finish(out, 0.0);
        continue;
      }
      call.finish(out, r->makespan.value);
      out.makespans.push_back(r->makespan.value);
      out.tasks += sc.tasks.size();
      out.calibration_tasks += static_cast<double>(r->calibration_tasks);
      out.reissues += static_cast<double>(r->reissues);
      out.chunk_resizes += static_cast<double>(r->chunk_resizes);
      const resil::ResilienceReport& res = r->resilience;
      out.useful_mops += sc.tasks.total_work().value;
      out.wasted_mops += res.wasted_mops;
      out.crashes_detected += static_cast<double>(res.crashes_detected);
      out.redispatched += static_cast<double>(res.tasks_redispatched);
      out.checkpoints += static_cast<double>(res.checkpoints);
      out.failovers += static_cast<double>(res.failovers);
      out.replication_records += static_cast<double>(res.replication_records);
    }
    out.responses = out.makespans;
    return out;
  }

 private:
  struct Scenario {
    gridsim::Grid grid;
    workloads::TaskSet tasks;
  };
  core::FarmParams params_;
  std::vector<Scenario> scenarios_;
};

// ------------------------------------------------------------ hier_scale

class HierScale final : public Workload {
 public:
  static constexpr std::size_t kWorkers = 4096;
  // Makespans at this scale swing ~10% between task draws (the dispatch
  // dynamics are chaotic), so eight draws back the virtual metrics.
  static constexpr std::size_t kScenarios = 8;

  HierScale(std::uint64_t seed, SetupTimes& times, obs::SpanRecorder* spans,
            obs::SpanId parent)
      : grid_(timed(times.grid_s, spans, parent, "gen.GridBuilder",
                    [] { return hetero_grid(); })) {
    SplitMix64 seeds(seed);
    for (std::size_t i = 0; i < kScenarios; ++i) {
      const std::uint64_t task_seed = seeds.next();
      task_sets_.push_back(
          timed(times.tasks_s, spans, parent, "gen.make_task_set", [&] {
            return lognormal_tasks(8 * kWorkers, 2000.0, 0.6, task_seed);
          }));
    }
  }

  [[nodiscard]] Outcome run_pass(const Probe& probe) const override {
    Outcome out;
    for (const workloads::TaskSet& tasks : task_sets_) {
      ++out.attempted;
      core::SimBackend sim(grid_);
      EngineCall call(probe, sim);
      core::HierFarmParams p;
      p.telemetry = call.telemetry();
      std::optional<core::HierFarmReport> r;
      try {
        call.run("engine.HierFarm::run", [&] {
          r = core::HierFarm(p).run(call.backend(), grid_, grid_.node_ids(),
                                    tasks);
        });
      } catch (const std::exception&) {
        r.reset();
      }
      if (!r || !conserves(*r, tasks.size())) {
        ++out.failed;
        call.finish(out, 0.0);
        continue;
      }
      call.finish(out, r->makespan.value);
      out.makespans.push_back(r->makespan.value);
      out.tasks += tasks.size();
      out.calibration_tasks += static_cast<double>(r->calibration_tasks);
      out.useful_mops += tasks.total_work().value;
      out.redispatched += static_cast<double>(r->redispatched);
      out.root_events_per_vs += r->root_events_per_vsec();
      out.shard_events += static_cast<double>(r->shard_events);
      out.reduction_messages += static_cast<double>(r->reduction_messages);
    }
    out.responses = out.makespans;
    return out;
  }

 private:
  /// bench_e15's grid: node 0 is the root (coordination only); workers
  /// cycle through an 8x speed spread.
  static gridsim::Grid hetero_grid() {
    gridsim::GridBuilder b;
    const SiteId s = b.add_site("a");
    b.add_node(s, 100.0);
    const double speeds[] = {50.0, 100.0, 200.0, 400.0};
    for (std::size_t i = 0; i < kWorkers; ++i) b.add_node(s, speeds[i % 4]);
    return b.build();
  }

  gridsim::Grid grid_;
  std::vector<workloads::TaskSet> task_sets_;
};

// ------------------------------------------------------------ job_stream

class JobStream final : public Workload {
 public:
  // Two streams with independent payloads put ~600 job response times
  // behind each pass's percentiles.
  static constexpr std::size_t kStreams = 2;

  JobStream(std::uint64_t seed, SetupTimes& times, obs::SpanRecorder* spans,
            obs::SpanId parent)
      : grid_(timed(times.grid_s, spans, parent, "gen.make_grid", [] {
          gridsim::ScenarioParams sp;
          sp.node_count = 16;
          sp.sites = 2;
          sp.dynamics = gridsim::Dynamics::Stable;
          sp.seed = 97;
          return gridsim::make_grid(sp);
        })),
        arrivals_(timed(times.arrivals_s, spans, parent,
                        "gen.make_job_arrivals", [] {
                          workloads::JobArrivalParams ap;
                          ap.horizon = Seconds{1200.0};
                          ap.base_rate_per_s = 1.0 / 4.0;
                          ap.diurnal_amplitude = 0.6;
                          ap.diurnal_period = Seconds{240.0};
                          ap.diurnal_phase = 0.75;
                          ap.kind_weights = {2.0, 1.0, 1.0};
                          ap.seed = 1009;
                          return workloads::make_job_arrivals(ap);
                        })) {
    SplitMix64 salts(seed);
    streams_.resize(kStreams);
    for (std::vector<workloads::TaskSet>& stream : streams_) {
      const std::uint64_t salt = salts.next();
      stream.reserve(arrivals_.size());
      for (const workloads::JobArrival& a : arrivals_)
        stream.push_back(timed(times.tasks_s, spans, parent,
                               "gen.make_application_task_set", [&] {
                                 return workloads::make_application_task_set(
                                     kind(a), a.seed ^ salt);
                               }));
    }
  }

  [[nodiscard]] Outcome run_pass(const Probe& probe) const override {
    Outcome out;
    std::vector<double> waits;
    for (const std::vector<workloads::TaskSet>& stream : streams_)
      run_stream(probe, stream, out, waits);
    out.queue_wait_p50_vs = percentile(waits, 0.5);
    return out;
  }

 private:
  static workloads::ApplicationKind kind(const workloads::JobArrival& a) {
    return static_cast<workloads::ApplicationKind>(a.kind);
  }

  void run_stream(const Probe& probe,
                  const std::vector<workloads::TaskSet>& tasks, Outcome& out,
                  std::vector<double>& waits) const {
    core::SimBackend sim(grid_);
    EngineCall call(probe, sim);
    svc::GridService::Params sp;
    sp.use_calibration_cache = true;
    sp.telemetry = call.telemetry();
    std::optional<svc::GridService> service;
    service.emplace(call.backend(), grid_, grid_.node_ids(), sp);
    std::vector<svc::JobHandle> handles;
    handles.reserve(arrivals_.size());
    call.run("svc.GridService::submit_at", [&] {
      for (std::size_t j = 0; j < arrivals_.size(); ++j) {
        svc::JobOptions opt;
        opt.name = workloads::to_string(kind(arrivals_[j]));
        opt.max_share = 0.45;
        opt.min_nodes = 2;
        handles.push_back(service->submit_at(
            arrivals_[j].at,
            svc::FarmJob{core::make_adaptive_farm_params(), tasks[j]}, opt));
      }
    });
    call.run("svc.GridService::wait_all", [&] { service->wait_all(); });

    double last_finish = 0.0;
    for (std::size_t j = 0; j < handles.size(); ++j) {
      const svc::JobHandle& h = handles[j];
      ++out.attempted;
      if (h.status() != svc::JobStatus::Completed ||
          h.farm_report().tasks_completed +
                  h.farm_report().calibration_tasks !=
              tasks[j].size()) {
        ++out.failed;
        continue;
      }
      const core::FarmReport& r = h.farm_report();
      out.makespans.push_back(h.makespan_s());
      out.responses.push_back(h.queue_wait_s() + h.makespan_s());
      waits.push_back(h.queue_wait_s());
      last_finish = std::max(last_finish, h.finished_at().value);
      out.tasks += tasks[j].size();
      out.calibration_tasks += static_cast<double>(r.calibration_tasks);
      out.reissues += static_cast<double>(r.reissues);
      out.chunk_resizes += static_cast<double>(r.chunk_resizes);
      out.useful_mops += tasks[j].total_work().value;
      out.wasted_mops += r.resilience.wasted_mops;
    }
    out.peak_tenants = std::max(
        out.peak_tenants,
        static_cast<double>(service->max_concurrent_observed()));
    out.cache_hits += static_cast<double>(service->calibration_cache().hits());
    service.reset();  // joins the engine threads before the spans are read
    call.finish(out, last_finish);
  }

  gridsim::Grid grid_;
  std::vector<workloads::JobArrival> arrivals_;
  std::vector<std::vector<workloads::TaskSet>> streams_;  ///< per stream
};

}  // namespace

bool Outcome::same_virtual(const Outcome& o) const {
  return makespans == o.makespans && responses == o.responses &&
         tasks == o.tasks && attempted == o.attempted && failed == o.failed &&
         calibration_tasks == o.calibration_tasks && reissues == o.reissues &&
         chunk_resizes == o.chunk_resizes && useful_mops == o.useful_mops &&
         wasted_mops == o.wasted_mops &&
         crashes_detected == o.crashes_detected &&
         redispatched == o.redispatched && checkpoints == o.checkpoints &&
         failovers == o.failovers &&
         replication_records == o.replication_records &&
         root_events_per_vs == o.root_events_per_vs &&
         shard_events == o.shard_events &&
         reduction_messages == o.reduction_messages &&
         peak_tenants == o.peak_tenants && cache_hits == o.cache_hits &&
         queue_wait_p50_vs == o.queue_wait_p50_vs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"farm_churn", "hier_scale",
                                                 "job_stream"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, SetupTimes& times,
                                        obs::SpanRecorder* spans,
                                        obs::SpanId parent) {
  if (name == "farm_churn")
    return std::make_unique<FarmChurn>(seed, times, spans, parent);
  if (name == "hier_scale")
    return std::make_unique<HierScale>(seed, times, spans, parent);
  if (name == "job_stream")
    return std::make_unique<JobStream>(seed, times, spans, parent);
  return nullptr;
}

double speed_probe_s() {
  // A 256 KiB binary heap under xorshift churn: memory- and branch-bound
  // like the simulator's event queue, and independent of every file under
  // src/, so only the host's speed moves its time.  The untimed sweep
  // first pulls the heap back into cache, so whatever the workload left
  // in the caches does not leak into the probe.
  static std::vector<std::uint64_t> heap;
  static std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto next = [] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  if (heap.empty()) {
    for (int i = 0; i < 32768; ++i) heap.push_back(next());
    std::make_heap(heap.begin(), heap.end());
  }
  std::uint64_t sum = 0;
  for (const std::uint64_t v : heap) sum += v;
  x ^= sum & 1;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < 5000; ++i) {
    std::pop_heap(heap.begin(), heap.end());
    heap.back() = next();
    std::push_heap(heap.begin(), heap.end());
  }
  return seconds_since(t0);
}

double HostClock::now_s() const {
  // Spelled out: inside HostClock, `Clock` names the obs::Clock base.
  using Steady = std::chrono::steady_clock;
  static const Steady::time_point start = Steady::now();
  return std::chrono::duration<double>(Steady::now() - start).count();
}

}  // namespace grasp::perfbench
