// Online SLO watchdogs: once-per-subject alerting at the unit level, and
// the engine-integration contract — a planted stalled heartbeat raises
// exactly one alert within timeout + heartbeat_period, and a clean run
// raises none.
#include "obs/watchdog.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/backend_sim.hpp"
#include "core/baselines.hpp"
#include "core/task_farm.hpp"
#include "gridsim/churn.hpp"
#include "gridsim/grid.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/telemetry.hpp"
#include "workloads/generators.hpp"

namespace grasp::obs {
namespace {

std::uint64_t breach_count(Telemetry& tel, const char* rule) {
  return tel.metrics.counter_value(
      tel.metrics.counter(std::string("obs.slo.breaches.") + rule));
}

class ManualClock final : public Clock {
 public:
  [[nodiscard]] double now_s() const override { return at; }
  double at = 0.0;
};

TEST(Watchdog, FiresOncePerRuleAndSubject) {
  Telemetry tel;
  ManualClock clock;  // instants are dropped on a clock-less recorder
  tel.spans.set_clock(&clock);
  SloRules rules;
  rules.heartbeat_staleness_s = 5.0;
  Watchdog dog(rules, tel);

  dog.check_heartbeat(NodeId{1}, 10.0, 8.0);  // 2s stale: within bound
  EXPECT_EQ(dog.breach_count(), 0u);
  dog.check_heartbeat(NodeId{1}, 20.0, 8.0);  // 12s stale: breach
  dog.check_heartbeat(NodeId{1}, 30.0, 8.0);  // same subject: deduped
  dog.check_heartbeat(NodeId{2}, 30.0, 1.0);  // new subject: second alert
  dog.check_heartbeat(NodeId{3}, 30.0, -1.0);  // unwatched sentinel: no-op
  ASSERT_EQ(dog.breach_count(), 2u);
  EXPECT_EQ(dog.breaches()[0].subject, "node.1");
  EXPECT_EQ(dog.breaches()[0].rule, "heartbeat");
  EXPECT_DOUBLE_EQ(dog.breaches()[0].observed, 12.0);
  EXPECT_EQ(breach_count(tel, "total"), 2u);
  EXPECT_EQ(breach_count(tel, "heartbeat"), 2u);

  // Every breach leaves a span instant tagged with the rule.
  std::size_t instants = 0;
  for (const SpanRecord& rec : tel.spans.records())
    if (std::string(rec.name) == "slo_breach") ++instants;
  EXPECT_EQ(instants, 2u);
}

TEST(Watchdog, WatchdogsShareCountersButDedupeSeparately) {
  Telemetry tel;
  SloRules rules;
  rules.heartbeat_staleness_s = 1.0;
  Watchdog first(rules, tel);
  Watchdog second(rules, tel);
  first.check_heartbeat(NodeId{7}, 10.0, 1.0);
  second.check_heartbeat(NodeId{7}, 10.0, 1.0);
  ASSERT_EQ(first.breach_count(), 1u);
  ASSERT_EQ(second.breach_count(), 1u);
  EXPECT_EQ(first.breaches()[0].subject, "node.7");
  EXPECT_EQ(second.breaches()[0].subject, "node.7");
  // Counters are shared across watchdogs (idempotent registration).
  EXPECT_EQ(breach_count(tel, "total"), 2u);
}

TEST(Watchdog, DetectionWastedAndStallRules) {
  Telemetry tel;
  FlightRecorder flight(16);
  tel.flight = &flight;
  SloRules rules;
  rules.detection_latency_s = 2.0;
  rules.wasted_mops_rate = 10.0;
  rules.calibration_stall_s = 5.0;
  Watchdog dog(rules, tel);

  dog.check_detection(NodeId{4}, 50.0, 1.5);  // within bound
  dog.check_detection(NodeId{4}, 50.0, 3.0);  // breach
  EXPECT_EQ(breach_count(tel, "detection"), 1u);

  dog.check_wasted_rate(70.0, 5.0, 0.0);    // zero elapsed: guarded
  dog.check_wasted_rate(70.0, 50.0, 100.0);  // 0.5 mops/s: fine
  dog.check_wasted_rate(70.0, 5000.0, 100.0);  // 50 mops/s: breach
  EXPECT_EQ(breach_count(tel, "wasted_rate"), 1u);

  dog.check_calibration_stall(80.0, -1.0);  // no pass open: no-op
  dog.check_calibration_stall(80.0, 78.0);  // open 2s: fine
  dog.check_calibration_stall(80.0, 70.0);  // open 10s: breach
  EXPECT_EQ(breach_count(tel, "calibration_stall"), 1u);

  EXPECT_EQ(breach_count(tel, "total"), 3u);
  // Each fire also lands in the flight ring.
  EXPECT_EQ(flight.seen(), 3u);
}

// ---------------------------------------------------------------------
// Engine integration: the farm's liveness tick drives the probes.

workloads::TaskSet tasks(std::size_t n) {
  workloads::TaskSetParams p;
  p.count = n;
  p.mean_mops = 100.0;
  p.cv = 0.5;
  p.seed = 42;
  return workloads::make_task_set(p);
}

core::FarmParams watched_params(Telemetry* tel, double staleness_bound) {
  core::FarmParams p = core::make_adaptive_farm_params();
  p.chunk_size = 2;
  p.resilience.enabled = true;
  p.resilience.detector.heartbeat_period = Seconds{1.0};
  p.resilience.detector.timeout = Seconds{5.0};
  p.slos.heartbeat_staleness_s = staleness_bound;
  p.telemetry = tel;
  return p;
}

TEST(Watchdog, CleanRunRaisesNoAlerts) {
  // Static grid, no churn: every heartbeat stays fresh, so even a tight
  // staleness bound (well above one heartbeat period) must stay silent.
  Telemetry tel;
  const gridsim::Grid grid = gridsim::make_uniform_grid(6, 100.0);
  core::SimBackend backend(grid);
  const core::FarmReport report =
      core::TaskFarm(watched_params(&tel, 3.0))
          .run(backend, grid, grid.node_ids(), tasks(200));
  EXPECT_EQ(report.tasks_completed + report.calibration_tasks, 200u);
  EXPECT_EQ(breach_count(tel, "total"), 0u);
}

TEST(Watchdog, PlantedStalledHeartbeatFiresExactlyOneAlertInTime) {
  // Node 2 crashes at t=30 and never returns: its heartbeat goes stale,
  // the watchdog (bound 3s, tighter than the 5s detector timeout) must
  // raise exactly one alert for exactly that node, no later than the
  // detector's own declaration hard cap of timeout + heartbeat_period.
  constexpr double kCrashAt = 30.0;
  constexpr double kBound = 3.0;
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (int i = 0; i < 6; ++i) b.add_node(s, 100.0);
  gridsim::Grid grid = b.build();
  grid.node(NodeId{2}).add_downtime({Seconds{kCrashAt}, Seconds{20030.0}});
  grid.set_churn(gridsim::ChurnTimeline(
      {{Seconds{kCrashAt}, gridsim::ChurnEventKind::Crash, NodeId{2}}}, {}));

  Telemetry tel;
  core::SimBackend backend(grid);
  const core::FarmReport report =
      core::TaskFarm(watched_params(&tel, kBound))
          .run(backend, grid, grid.node_ids(), tasks(400));
  EXPECT_EQ(report.tasks_completed + report.calibration_tasks, 400u);
  EXPECT_EQ(report.resilience.crashes_detected, 1u);

  EXPECT_EQ(breach_count(tel, "heartbeat"), 1u);
  EXPECT_EQ(breach_count(tel, "total"), 1u);

  // The span instant pinpoints subject and time: the alert must land
  // after the staleness bound elapsed but within the detection hard cap.
  const double timeout = 5.0, period = 1.0;
  std::size_t alerts = 0;
  for (const SpanRecord& rec : tel.spans.records()) {
    if (std::string(rec.name) != "slo_breach") continue;
    ++alerts;
    EXPECT_EQ(rec.node, NodeId{2});
    EXPECT_GE(rec.begin_s, kCrashAt + kBound);
    EXPECT_LE(rec.begin_s, kCrashAt + timeout + period);
  }
  EXPECT_EQ(alerts, 1u);
}

}  // namespace
}  // namespace grasp::obs
