// Admission re-evaluates a waiting head job only when its verdict can
// change.
//
// GridService::try_admit runs after every backend event.  When the head
// of the queue cannot start, the service records what that verdict read:
// the head, the running tenants, the calibration cache's contents and the
// age of its oldest fresh entry, and the next churn event.  Later events
// skip the evaluation until one of them moves.  Each test here plants one
// re-open cause while a head waits, logs the cache lookups admission makes
// on every backend event through a forwarding Backend, and pins the
// instant and the nodes the head starts with, as the evaluation on every
// event chose them.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "gridsim/scenarios.hpp"
#include "svc/grid_service.hpp"
#include "workloads/applications.hpp"
#include "workloads/generators.hpp"

namespace grasp::svc {
namespace {

/// Forwards every call to the wrapped backend.  Before each wait_next it
/// logs the clock and the cache's lookup and store counts, which then
/// cover everything the service did for the previous event, and runs
/// `hook`.
class EventLog final : public core::Backend {
 public:
  struct Entry {
    double at = 0.0;          ///< time of the event just handled
    std::size_t lookups = 0;  ///< cache hits + misses so far
    std::size_t stores = 0;
  };

  explicit EventLog(core::Backend& inner) : inner_(inner) {}

  void watch(const CalibrationCache& cache) { cache_ = &cache; }

  /// Runs before each wait_next with the clock of the event just handled.
  std::function<void(Seconds)> hook;
  std::vector<Entry> log;
  std::size_t events = 0;  ///< completions returned by wait_next

  [[nodiscard]] Seconds now() const override { return inner_.now(); }
  void submit_compute(core::OpToken token, NodeId node, Mops work,
                      std::function<void()> body = {}) override {
    inner_.submit_compute(token, node, work, std::move(body));
  }
  void submit_transfer(core::OpToken token, NodeId from, NodeId to,
                       Bytes payload) override {
    inner_.submit_transfer(token, from, to, payload);
  }
  void submit_timer(core::OpToken token, Seconds delay) override {
    inner_.submit_timer(token, delay);
  }
  bool cancel_timer(core::OpToken token) override {
    return inner_.cancel_timer(token);
  }
  void submit_batch(std::vector<core::OpRequest> requests) override {
    inner_.submit_batch(std::move(requests));
  }
  [[nodiscard]] double compute_progress(core::OpToken token) const override {
    return inner_.compute_progress(token);
  }
  [[nodiscard]] std::size_t in_flight() const override {
    return inner_.in_flight();
  }
  [[nodiscard]] std::optional<core::Completion> wait_next() override {
    if (cache_ != nullptr)
      log.push_back({inner_.now().value, cache_->hits() + cache_->misses(),
                     cache_->stores()});
    if (hook) hook(inner_.now());
    std::optional<core::Completion> c = inner_.wait_next();
    if (c) ++events;
    return c;
  }

  struct Read {
    std::size_t entry = 0;  ///< index into `log`
    double at = 0.0;
    std::size_t lookups = 0;
  };
  /// The events handled at times in [from, to) on which the service read
  /// the cache, with the number of lookups each made.
  [[nodiscard]] std::vector<Read> reads(double from, double to) const {
    std::vector<Read> out;
    for (std::size_t i = 1; i < log.size(); ++i) {
      const std::size_t made = log[i].lookups - log[i - 1].lookups;
      if (made > 0 && log[i].at >= from && log[i].at < to)
        out.push_back({i, log[i].at, made});
    }
    return out;
  }
  /// Events handled at times in [from, to).
  [[nodiscard]] std::size_t events_in(double from, double to) const {
    std::size_t n = 0;
    for (std::size_t i = 1; i < log.size(); ++i)
      if (log[i].at >= from && log[i].at < to) ++n;
    return n;
  }

 private:
  core::Backend& inner_;
  const CalibrationCache* cache_ = nullptr;
};

workloads::TaskSet uniform_tasks(std::size_t n, double mops) {
  workloads::TaskSet ts;
  ts.name = "uniform";
  for (std::size_t i = 0; i < n; ++i) {
    workloads::TaskSpec t;
    t.id = TaskId{i};
    t.work = Mops{mops};
    t.input = Bytes{1e3};
    t.output = Bytes{1e3};
    ts.tasks.push_back(t);
  }
  return ts;
}

FarmJob demand_job(std::size_t tasks) {
  return FarmJob{core::make_demand_farm_params(), uniform_tasks(tasks, 100.0)};
}

JobOptions share(double max_share, std::size_t min_nodes = 1) {
  JobOptions opt;
  opt.max_share = max_share;
  opt.min_nodes = min_nodes;
  return opt;
}

// Tenants A and C each hold half of a four-node pool; the head B needs
// three nodes.  C retires first: that re-opens the gate, the evaluation
// still finds two free nodes and B waits on.  B starts when A retires.
TEST(AdmissionGate, TenantRetiringReopensTheGate) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  core::SimBackend sim(grid);
  EventLog backend(sim);
  GridService service(backend, grid, grid.node_ids());
  backend.watch(service.calibration_cache());

  const JobHandle a = service.submit(demand_job(120), share(0.5));
  const JobHandle c = service.submit(demand_job(30), share(0.5));
  const JobHandle b = service.submit_at(Seconds{5.0}, demand_job(20),
                                        share(1.0, 3));
  service.wait_all();

  ASSERT_EQ(a.status(), JobStatus::Completed);
  ASSERT_EQ(c.status(), JobStatus::Completed);
  ASSERT_EQ(b.status(), JobStatus::Completed);
  ASSERT_LT(c.finished_at().value, a.finished_at().value);
  EXPECT_EQ(b.started_at().value, a.finished_at().value);
  EXPECT_EQ(b.started_at().value, 60.012120000000053);
  EXPECT_EQ(b.nodes(), (std::vector<NodeId>{NodeId{0}, NodeId{1},
                                            NodeId{2}, NodeId{3}}));

  // While B waits the pool is read on its arrival and on C's retirement
  // only, once per node each time, though many events pass.
  const auto reads = backend.reads(5.0, b.started_at().value);
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[0].at, 5.0);
  EXPECT_EQ(reads[1].at, c.finished_at().value);
  for (const auto& r : reads) EXPECT_EQ(r.lookups, 4u);
  EXPECT_GE(backend.events_in(5.0, b.started_at().value), 40u);
}

// A store into the cache while B waits re-opens the gate once.
TEST(AdmissionGate, CacheStoreReopensTheGate) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  core::SimBackend sim(grid);
  EventLog backend(sim);
  GridService service(backend, grid, grid.node_ids());
  backend.watch(service.calibration_cache());
  // The store lands between the events logged as entries `stored` - 1
  // and `stored`.
  std::size_t stored = 0;
  backend.hook = [&](Seconds now) {
    if (stored == 0 && now.value >= 20.0) {
      service.calibration_cache().store(NodeId{2}, 0.02, now);
      stored = backend.log.size();
    }
  };

  const JobHandle a = service.submit(demand_job(120), share(1.0));
  const JobHandle b = service.submit_at(Seconds{5.0}, demand_job(20));
  service.wait_all();

  ASSERT_EQ(a.status(), JobStatus::Completed);
  ASSERT_EQ(b.status(), JobStatus::Completed);
  ASSERT_GT(stored, 0u);
  EXPECT_EQ(b.started_at().value, a.finished_at().value);
  EXPECT_EQ(b.started_at().value, 30.006060000000009);
  EXPECT_EQ(b.nodes(), (std::vector<NodeId>{NodeId{0}, NodeId{1},
                                            NodeId{2}, NodeId{3}}));

  // Read on B's arrival, then on the first event after the store.
  const auto reads = backend.reads(5.0, b.started_at().value);
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[0].at, 5.0);
  EXPECT_EQ(reads[1].entry, stored)
      << "the store must re-open the gate on the very next event";
  for (const auto& r : reads) EXPECT_EQ(r.lookups, 4u);
  EXPECT_GE(backend.events_in(5.0, b.started_at().value), 40u);
}

// A's own calibration stores every node's spm near t = 1.  B waits past
// the entries' 600 s freshness horizon (kCalibrationMaxAge): their expiry
// re-opens the gate on the first event after it.
TEST(AdmissionGate, CacheEntryExpiryReopensTheGate) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  core::SimBackend sim(grid);
  EventLog backend(sim);
  GridService service(backend, grid, grid.node_ids());
  backend.watch(service.calibration_cache());

  const JobHandle a = service.submit(demand_job(2800), share(1.0));
  const JobHandle b = service.submit_at(Seconds{5.0}, demand_job(20));
  service.wait_all();

  ASSERT_EQ(a.status(), JobStatus::Completed);
  ASSERT_EQ(b.status(), JobStatus::Completed);
  ASSERT_GT(a.finished_at().value, 700.0);
  EXPECT_EQ(b.started_at().value, a.finished_at().value);
  EXPECT_EQ(b.started_at().value, 700.14139999997576);
  EXPECT_EQ(b.nodes(), (std::vector<NodeId>{NodeId{0}, NodeId{1},
                                            NodeId{2}, NodeId{3}}));

  // Every entry was stored on one event, before B arrived.
  double stamp = -1.0;
  for (const auto& e : backend.log)
    if (e.stores > 0) {
      stamp = e.at;
      break;
    }
  ASSERT_GT(stamp, 0.0);
  ASSERT_LT(stamp, 5.0);
  EXPECT_EQ(service.calibration_cache().stores(), 4u + 4u);  // A's, then B's

  std::size_t first_stale = 0;  // first event at which the entries read stale
  while (!(backend.log[first_stale].at - stamp > 600.0)) ++first_stale;
  const auto reads = backend.reads(5.0, b.started_at().value);
  ASSERT_EQ(reads.size(), 2u);
  EXPECT_EQ(reads[0].at, 5.0);
  EXPECT_EQ(reads[1].entry, first_stale)
      << "the expiry must re-open the gate on the first event after it";
  for (const auto& r : reads) EXPECT_EQ(r.lookups, 4u);
}

/// Node 0 is immortal; nodes 1..3 crash at t = 5 and rejoin at t = 50.
gridsim::Grid make_rejoin_grid() {
  gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  std::vector<gridsim::ChurnEvent> events;
  for (std::uint64_t n = 1; n <= 3; ++n) {
    grid.node(NodeId{n}).add_downtime({Seconds{5.0}, Seconds{50.0}});
    events.push_back({Seconds{5.0}, gridsim::ChurnEventKind::Crash,
                      NodeId{n}});
    events.push_back({Seconds{50.0}, gridsim::ChurnEventKind::Rejoin,
                      NodeId{n}});
  }
  grid.set_churn(gridsim::ChurnTimeline(std::move(events)));
  return grid;
}

// A runs on node 0.  B arrives at t = 10 needing three nodes while only
// node 0 is alive: its floor is re-clamped to one and it waits for node 0.
// The rejoin at t = 50 re-opens the gate, and B starts on the first event
// after it.
TEST(AdmissionGate, RejoinLiftsReclampedWait) {
  const gridsim::Grid grid = make_rejoin_grid();
  core::SimBackend sim(grid);
  EventLog backend(sim);
  GridService service(backend, grid, grid.node_ids());
  backend.watch(service.calibration_cache());

  const JobHandle a = service.submit(demand_job(100), share(0.25));
  const JobHandle b = service.submit_at(Seconds{10.0}, demand_job(20),
                                        share(1.0, 3));
  service.wait_all();

  ASSERT_EQ(a.status(), JobStatus::Completed);
  ASSERT_EQ(b.status(), JobStatus::Completed);
  ASSERT_EQ(a.nodes(), std::vector<NodeId>{NodeId{0}});
  ASSERT_GT(a.finished_at().value, 60.0);
  EXPECT_EQ(service.min_nodes_reclamps(), 1u);
  EXPECT_EQ(b.started_at().value, 50.0);
  EXPECT_EQ(backend.events_in(50.0, b.started_at().value), 0u)
      << "B must start on the first event after the rejoin";
  EXPECT_EQ(b.nodes(), (std::vector<NodeId>{NodeId{1}, NodeId{2}}));

  // One read of the lone live node on arrival, none until the rejoin.
  const auto reads = backend.reads(10.0, b.started_at().value);
  ASSERT_EQ(reads.size(), 1u);
  EXPECT_EQ(reads[0].at, 10.0);
  EXPECT_EQ(reads[0].lookups, 1u);
  EXPECT_GE(backend.events_in(10.0, 50.0), 20u);
}

// Both pool nodes are down when B arrives at t = 10, so nobody is alive to
// allocate.  Only arrival timers fire while it waits; the first one after
// node 1 rejoins at t = 30 starts B there.
TEST(AdmissionGate, RejoinLiftsEmptyPoolWait) {
  gridsim::Grid grid = gridsim::make_uniform_grid(2, 100.0);
  grid.node(NodeId{0}).add_downtime({Seconds{5.0}, Seconds{1e9}});
  grid.node(NodeId{1}).add_downtime({Seconds{5.0}, Seconds{30.0}});
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{5.0}, gridsim::ChurnEventKind::Crash, NodeId{0}},
       {Seconds{5.0}, gridsim::ChurnEventKind::Crash, NodeId{1}},
       {Seconds{30.0}, gridsim::ChurnEventKind::Rejoin, NodeId{1}}}));
  core::SimBackend sim(grid);
  GridService service(sim, grid, grid.node_ids());

  const JobHandle b = service.submit_at(Seconds{10.0}, demand_job(10));
  std::vector<JobHandle> behind;
  for (const double at : {12.0, 20.0, 40.0})
    behind.push_back(service.submit_at(Seconds{at}, demand_job(10)));
  service.wait_all();

  ASSERT_EQ(b.status(), JobStatus::Completed);
  EXPECT_EQ(b.started_at().value, 40.0);
  EXPECT_EQ(b.nodes(), std::vector<NodeId>{NodeId{1}});
  for (const JobHandle& h : behind) {
    EXPECT_EQ(h.status(), JobStatus::Completed);
    EXPECT_GT(h.started_at().value, b.started_at().value);
  }
}

// ------------------------------------------ BENCH_e14's cache-on stream

/// BENCH_e14's pool (bench/bench_e14_jobs.cpp, make_pool_grid).
gridsim::Grid e14_pool() {
  gridsim::ScenarioParams sp;
  sp.node_count = 16;
  sp.sites = 2;
  sp.dynamics = gridsim::Dynamics::Stable;
  sp.seed = 97;
  return gridsim::make_grid(sp);
}

/// BENCH_e14's full arrival stream (make_stream(1200 s, 1/4 per s)).
std::vector<workloads::JobArrival> e14_arrivals() {
  workloads::JobArrivalParams ap;
  ap.horizon = Seconds{1200.0};
  ap.base_rate_per_s = 1.0 / 4.0;
  ap.diurnal_amplitude = 0.6;
  ap.diurnal_period = Seconds{240.0};
  ap.diurnal_phase = 0.75;
  ap.kind_weights = {2.0, 1.0, 1.0};
  ap.seed = 1009;
  return workloads::make_job_arrivals(ap);
}

// Admission used to read every node's capacity on every backend event
// while a job queued (about two lookups per event on this stream).  Per
// state change it reads a small fraction of that.
TEST(AdmissionGate, E14CacheOnStreamReadsCacheOnAFractionOfEvents) {
  const gridsim::Grid grid = e14_pool();
  core::SimBackend sim(grid);
  EventLog backend(sim);
  GridService service(backend, grid, grid.node_ids());

  const auto arrivals = e14_arrivals();
  ASSERT_EQ(arrivals.size(), 291u);
  for (const workloads::JobArrival& a : arrivals) {
    const auto kind = static_cast<workloads::ApplicationKind>(a.kind);
    JobOptions opt;
    opt.name = workloads::to_string(kind);
    opt.max_share = 0.45;
    opt.min_nodes = 2;
    service.submit_at(a.at,
                      FarmJob{core::make_adaptive_farm_params(),
                              workloads::make_application_task_set(kind,
                                                                   a.seed)},
                      opt);
  }
  service.wait_all();

  ASSERT_EQ(service.jobs_completed(), 291u);
  ASSERT_GT(backend.events, 100000u);
  const CalibrationCache& cache = service.calibration_cache();
  const double per_event =
      static_cast<double>(cache.hits() + cache.misses()) /
      static_cast<double>(backend.events);
  EXPECT_LT(per_event, 0.1) << cache.hits() << " hits + " << cache.misses()
                            << " misses over " << backend.events
                            << " backend events";
}

}  // namespace
}  // namespace grasp::svc
