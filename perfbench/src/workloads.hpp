// The benchmark's three workloads, driven through the public engine APIs.
//
//   farm_churn  — 200 e13-style churn scenarios per pass, closed loop, each
//                 a core::TaskFarm::run over make_churn_grid (16 nodes + 4
//                 spares, MTBF 300 s, checkpointing, one standby farmer).
//   hier_scale  — core::HierFarm over 1 root + 4096 workers (50/100/200/400
//                 mops) with 8W tasks and no churn.
//   job_stream  — the e14 cache-on stream through svc::GridService: ~290
//                 diurnal-Poisson arrivals submitted open loop in virtual
//                 time with submit_at, max_share 0.45.
//
// A workload owns the inputs generated from one seed; run_pass replays
// them all once.  Inputs never change between passes, so every pass of a
// seed must reproduce the same virtual outcome — the benchmark's
// determinism check.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/span.hpp"
#include "timed_backend.hpp"

namespace grasp::perfbench {

/// Host seconds spent in the input generators during one set-up.
struct SetupTimes {
  double grid_s = 0.0;      ///< make_grid / make_churn_grid / GridBuilder
  double tasks_s = 0.0;     ///< make_task_set / make_application_task_set
  double arrivals_s = 0.0;  ///< make_job_arrivals
  [[nodiscard]] double total() const { return grid_s + tasks_s + arrivals_s; }
};

/// What one pass produced.  The `virtual` block is deterministic per seed;
/// the host block is measured.
struct Outcome {
  // ---- virtual results, compared across passes and traced/untraced ----
  std::vector<double> makespans;  ///< per scenario, or per job (admission on)
  std::vector<double> responses;  ///< per job from arrival; = makespans else
  std::size_t tasks = 0;          ///< tasks of the scenarios/jobs that passed
  std::size_t attempted = 0;      ///< scenarios or jobs run
  std::size_t failed = 0;         ///< of those, failing the correctness check
  // engine
  double calibration_tasks = 0.0;
  double reissues = 0.0;
  double chunk_resizes = 0.0;
  // resil
  double useful_mops = 0.0;
  double wasted_mops = 0.0;
  double crashes_detected = 0.0;
  double redispatched = 0.0;
  double checkpoints = 0.0;
  double failovers = 0.0;
  double replication_records = 0.0;
  // hier
  double root_events_per_vs = 0.0;  ///< summed over scenarios
  double shard_events = 0.0;
  double reduction_messages = 0.0;
  // svc
  double peak_tenants = 0.0;
  double cache_hits = 0.0;
  double queue_wait_p50_vs = 0.0;
  // obs (traced passes only): blame seconds summed over scenarios
  obs::BlameBreakdown blame;
  double blame_window_s = 0.0;
  double spans = 0.0;

  // ---- host time (not compared) ----
  double engine_call_s = 0.0;  ///< inside TaskFarm/HierFarm/GridService calls
  double blame_host_s = 0.0;   ///< inside analyze_blame

  /// True when the virtual block equals `o` bit for bit.
  [[nodiscard]] bool same_virtual(const Outcome& o) const;
};

/// What a pass records besides its outcome.  Default: nothing (the
/// untraced configuration end-to-end metrics are measured in).
struct Probe {
  /// Wrap each SimBackend in a TimedBackend and accumulate its counters.
  BackendCounters* backend = nullptr;
  /// Attach obs::Telemetry(detail=true) per engine run and blame it.
  bool telemetry = false;
  /// Host-clock spans around each public layer call (may be null), as
  /// children of `parent`.
  obs::SpanRecorder* host_spans = nullptr;
  obs::SpanId parent = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  Workload(Workload&&) = delete;
  Workload& operator=(Workload&&) = delete;

  /// Run every scenario/job once.
  [[nodiscard]] virtual Outcome run_pass(const Probe& probe) const = 0;
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Generate `name`'s inputs from `seed`, timing every generator call into
/// `times` and recording host spans under `parent` into `spans` when
/// non-null.  Returns null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, std::uint64_t seed, SetupTimes& times,
    obs::SpanRecorder* spans = nullptr, obs::SpanId parent = 0);

/// Host seconds a fixed reference kernel takes now: the host speed probe.
/// Co-tenants on a shared host slow a core by up to half for seconds at a
/// time; the probe, sampled throughout every pass, measures by how much.
[[nodiscard]] double speed_probe_s();

/// Steady host seconds since the first call (the host span clock).
class HostClock final : public obs::Clock {
 public:
  [[nodiscard]] double now_s() const override;
};

/// Host span over a scope; inert when `rec` is null.
class HostSpan {
 public:
  HostSpan(obs::SpanRecorder* rec, const char* name, obs::SpanId parent = 0)
      : rec_(rec), id_(rec != nullptr ? rec->begin(name, parent) : 0) {}
  ~HostSpan() {
    if (rec_ != nullptr) rec_->end(id_);
  }
  HostSpan(const HostSpan&) = delete;
  HostSpan& operator=(const HostSpan&) = delete;
  [[nodiscard]] obs::SpanId id() const { return id_; }

 private:
  obs::SpanRecorder* rec_;
  obs::SpanId id_;
};

}  // namespace grasp::perfbench
