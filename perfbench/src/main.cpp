// perfbench: host-time benchmark of the GRASP simulator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// Set-up generates the workload's inputs from the seed at least five times
// and for at least a second, and reports the median time (setup_s).  One
// untimed pass warms the allocator and the load-model caches and fixes the
// reference virtual outcome.  Then:
//
//   --trace 0  closed-loop passes for S seconds with no instrumentation;
//              prints the end-to-end metrics.
//   --trace 1  S/2 seconds of uninstrumented passes (rusage, the overhead
//              baseline), then S/2 seconds of traced passes — TimedBackend
//              decorator, obs::Telemetry(detail) + analyze_blame, host
//              spans around every layer call — and prints the per-layer
//              metrics.  The host spans go to PATH as a Chrome trace.
//
// Host times are reported at the reference host's speed: a sampler thread
// times a fixed probe kernel every 20 ms on the same CPU, and each measured
// interval is rescaled by the probe's slowdown over it (see SpeedSampler).
//
// Every pass must reproduce the reference virtual outcome bit for bit, and
// every scenario/job must pass its conservation check.  The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/export_chrome.hpp"
#include "workloads.hpp"

using namespace grasp;
using namespace grasp::perfbench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMinSetupReps = 5;
constexpr double kMinSetupSeconds = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      std::size_t used = 0;
      if (flag == "--workload") {
        a.workload = value;
        used = value.size();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value, &used);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value, &used);
      } else if (flag == "--trace") {
        a.trace = std::stoi(value, &used);
      } else if (flag == "--trace-out") {
        a.trace_out = value;
        used = value.size();
      } else {
        return false;
      }
      if (used != value.size()) return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && a.seconds > 0.0 &&
         (a.trace == 0 || a.trace == 1) &&
         std::find(workload_names().begin(), workload_names().end(),
                   a.workload) != workload_names().end();
}

double median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

double percentile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double rank = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  double ctx_switches = 0.0;
  double max_rss_mb = 0.0;
};

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime),
          static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw),
          static_cast<double>(ru.ru_maxrss) / 1024.0};
}

/// The speed probe's time on a quiet core of the reference host (a
/// 4-vCPU Xeon VM at 2.0 GHz); host seconds are reported at that speed.
constexpr double kReferenceProbeS = 0.3e-3;

/// Samples the host speed probe every 20 ms on a thread of its own.  The
/// thread inherits the benchmark's single-CPU affinity, so each sample
/// preempts the workload briefly and measures the core it runs on.
class SpeedSampler {
 public:
  struct Reading {
    double probe_s = 0.0;  ///< summed probe times
    double busy_s = 0.0;   ///< summed host time the sampler took
    std::uint64_t samples = 0;
  };

  SpeedSampler() : thread_([this] { loop(); }) {}
  ~SpeedSampler() {
    {
      const std::lock_guard<std::mutex> lk(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  SpeedSampler(const SpeedSampler&) = delete;
  SpeedSampler& operator=(const SpeedSampler&) = delete;

  [[nodiscard]] Reading read() const {
    const std::lock_guard<std::mutex> lk(mu_);
    return total_;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lk(mu_);
    while (!cv_.wait_for(lk, std::chrono::milliseconds(20),
                         [this] { return stop_; })) {
      lk.unlock();
      const Clock::time_point t0 = Clock::now();
      const double probe = speed_probe_s();
      const double busy = seconds_since(t0);
      lk.lock();
      total_.probe_s += probe;
      total_.busy_s += busy;
      ++total_.samples;
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  Reading total_;
  std::thread thread_;  // last: starts once the members it uses exist
};

/// kReferenceProbeS over the mean probe time sampled between two
/// readings: the factor that converts host seconds measured in between to
/// reference-speed seconds.
double reference_scale(const SpeedSampler::Reading& r0,
                       const SpeedSampler::Reading& r1) {
  const std::uint64_t n = r1.samples - r0.samples;
  const double probe_s = n > 0 ? (r1.probe_s - r0.probe_s) /
                                     static_cast<double>(n)
                               : speed_probe_s();
  return kReferenceProbeS / probe_s;
}

/// Host seconds of `work()` at reference speed: wall time less the
/// sampler's own, rescaled by the probes sampled meanwhile.
template <typename F>
double reference_seconds(const SpeedSampler& sampler, F&& work) {
  const SpeedSampler::Reading r0 = sampler.read();
  const Clock::time_point t0 = Clock::now();
  work();
  const double wall_s = seconds_since(t0);
  const SpeedSampler::Reading r1 = sampler.read();
  return (wall_s - (r1.busy_s - r0.busy_s)) * reference_scale(r0, r1);
}

/// Closed-loop passes until `seconds` have elapsed (at least `min_passes`).
/// Co-tenants on a shared host slow a core by up to half, in stretches of
/// a fraction of a second to tens of seconds, so raw pass times of one
/// build spread by ~40% between runs; pass times are therefore kept at
/// reference speed.
struct Loop {
  std::vector<Outcome> outcomes;
  std::vector<double> pass_s;  ///< reference-speed host seconds per pass
};

Loop run_loop(const Workload& w, const Probe& probe, double seconds,
              int min_passes, const SpeedSampler& sampler,
              obs::SpanRecorder* spans) {
  Loop loop;
  const Clock::time_point start = Clock::now();
  while (loop.outcomes.size() < static_cast<std::size_t>(min_passes) ||
         seconds_since(start) < seconds) {
    const HostSpan pass(spans, "pass");
    Probe p = probe;
    p.parent = pass.id();
    loop.pass_s.push_back(reference_seconds(
        sampler, [&] { loop.outcomes.push_back(w.run_pass(p)); }));
  }
  return loop;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Result {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void count(const Outcome& o, const Outcome& reference) {
    attempted_ += o.attempted;
    failed_ += o.same_virtual(reference) ? o.failed : o.attempted;
  }
  void fail() { correct_ = false; }

  void print(std::ostream& out) const {
    for (const Metric& m : metrics_)
      out << std::left << std::setw(30) << m.name << " " << std::setw(22)
          << std::setprecision(10) << m.value << " " << m.unit << "\n";
    out << std::setprecision(17);
    out << "{\"correct\": " << (correct_ && failed_ == 0 ? "true" : "false")
        << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
        << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      out << (i == 0 ? "" : ", ") << "\"" << metrics_[i].name
          << "\": {\"value\": " << metrics_[i].value << ", \"unit\": \""
          << metrics_[i].unit << "\"}";
    out << "}}" << std::endl;
  }

 private:
  std::vector<Metric> metrics_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  bool correct_ = true;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload farm_churn|hier_scale|"
                 "job_stream --seed N --seconds S --trace 0|1 "
                 "[--trace-out PATH]\n";
    return 2;
  }

  const HostClock host_clock;
  obs::SpanRecorder host_spans;
  host_spans.set_clock(&host_clock);
  obs::SpanRecorder* spans = args.trace == 1 ? &host_spans : nullptr;

  // ---- set-up: generate the inputs at least kMinSetupReps times and for
  // at least kMinSetupSeconds; keep the first rep's inputs.
  const SpeedSampler sampler;
  std::unique_ptr<Workload> workload;
  std::vector<SetupTimes> setups;
  std::vector<double> setup_s;
  const SpeedSampler::Reading setup_r0 = sampler.read();
  const Clock::time_point setup_start = Clock::now();
  while (setups.size() < static_cast<std::size_t>(kMinSetupReps) ||
         seconds_since(setup_start) < kMinSetupSeconds) {
    const bool first = setups.empty();
    const HostSpan setup(first ? spans : nullptr, "setup");
    SetupTimes t;
    std::unique_ptr<Workload> w;
    setup_s.push_back(reference_seconds(sampler, [&] {
      w = make_workload(args.workload, args.seed, t, first ? spans : nullptr,
                        setup.id());
    }));
    setups.push_back(t);
    if (first) workload = std::move(w);
  }
  // The per-generator split is summed from many short calls; rescale it by
  // the set-up phase's mean probe.
  const double setup_scale = reference_scale(setup_r0, sampler.read());
  const auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> xs;
    for (const SetupTimes& t : setups) xs.push_back(t.*field * setup_scale);
    return median(xs);
  };

  // ---- warm-up pass: fixes the reference virtual outcome.
  Result result;
  const Outcome reference = workload->run_pass({});
  result.count(reference, reference);
  const double tasks = static_cast<double>(reference.tasks);
  std::cout << "workload " << args.workload << " seed " << args.seed << ": "
            << reference.attempted << " scenarios/jobs, " << reference.tasks
            << " tasks per pass\n";
  if (reference.attempted == 0 || reference.failed != 0 || tasks == 0.0) {
    std::cerr << "perfbench: the reference pass failed its checks\n";
    result.fail();
  }

  if (args.trace == 0) {
    const Loop loop =
        run_loop(*workload, {}, args.seconds, 4, sampler, nullptr);
    for (const Outcome& o : loop.outcomes) result.count(o, reference);
    std::cout << loop.outcomes.size() << " timed passes\n";
    result.add("tasks_per_s", tasks / median(loop.pass_s), "1/s");
    result.add("makespan_vs", percentile(reference.makespans, 0.5), "vs");
    result.add("makespan_p95_vs", percentile(reference.responses, 0.95),
               "vs");
    result.add("setup_s", median(setup_s), "s");
    result.add("peak_rss_mb", usage().max_rss_mb, "MB");
    result.print(std::cout);
    return 0;
  }

  // ---- --trace 1: untraced half (overhead baseline, rusage), traced half.
  const Usage u0 = usage();
  const Loop plain =
      run_loop(*workload, {}, args.seconds / 2, 2, sampler, nullptr);
  const Usage u1 = usage();
  BackendCounters backend;
  Probe probe;
  probe.backend = &backend;
  probe.telemetry = true;
  probe.host_spans = spans;
  const SpeedSampler::Reading traced_r0 = sampler.read();
  const Loop traced =
      run_loop(*workload, probe, args.seconds / 2, 2, sampler, spans);
  const double traced_scale = reference_scale(traced_r0, sampler.read());

  for (const Outcome& o : plain.outcomes) result.count(o, reference);
  double engine_s = 0.0;
  std::vector<double> blame_host_s;
  for (const Outcome& o : traced.outcomes) {
    result.count(o, reference);  // traced == untraced, virtually
    engine_s += o.engine_call_s * traced_scale;
    blame_host_s.push_back(o.blame_host_s * traced_scale);
  }
  const Outcome& t = traced.outcomes.front();
  const double passes = static_cast<double>(traced.outcomes.size());
  const double events = static_cast<double>(backend.events);
  const double sim_ns = static_cast<double>(backend.ns) * traced_scale;
  const double events_per_pass = events / passes;
  const double plain_passes = static_cast<double>(plain.outcomes.size());

  result.add("sim.host_frac", sim_ns * 1e-9 / engine_s, "frac");
  result.add("sim.ns_per_event", sim_ns / events, "ns");
  result.add("sim.events_per_task", events_per_pass / tasks, "count");
  result.add("sim.calls_per_event",
             static_cast<double>(backend.calls) / events, "count");
  result.add("engine.ns_per_task", (engine_s * 1e9 - sim_ns) / (tasks * passes),
             "ns");
  result.add("engine.calibration_tasks", reference.calibration_tasks,
             "count");
  result.add("engine.reissues", reference.reissues, "count");
  result.add("engine.chunk_resizes", reference.chunk_resizes, "count");
  result.add("resil.useful_frac",
             reference.useful_mops /
                 (reference.useful_mops + reference.wasted_mops),
             "frac");
  result.add("resil.crashes_detected", reference.crashes_detected, "count");
  result.add("resil.redispatched", reference.redispatched, "count");
  result.add("resil.checkpoints", reference.checkpoints, "count");
  result.add("resil.failovers", reference.failovers, "count");
  result.add("resil.replication_records", reference.replication_records,
             "count");
  result.add("hier.root_events_per_vs",
             reference.root_events_per_vs /
                 static_cast<double>(reference.attempted),
             "1/vs");
  result.add("hier.shard_events", reference.shard_events, "count");
  result.add("hier.reduction_messages", reference.reduction_messages,
             "count");
  result.add("svc.ctx_switches_per_event",
             (u1.ctx_switches - u0.ctx_switches) / plain_passes /
                 events_per_pass,
             "count");
  const double cpu_s = (u1.user_s - u0.user_s) + (u1.sys_s - u0.sys_s);
  result.add("svc.sys_frac", cpu_s > 0.0 ? (u1.sys_s - u0.sys_s) / cpu_s : 0.0,
             "frac");
  result.add("svc.peak_tenants", reference.peak_tenants, "count");
  result.add("svc.cache_hits", reference.cache_hits, "count");
  result.add("svc.queue_wait_p50_vs", reference.queue_wait_p50_vs, "vs");
  const std::pair<const char*, double> causes[] = {
      {"calibration", t.blame.calibration_s},
      {"dispatch_wait", t.blame.dispatch_wait_s},
      {"compute", t.blame.compute_s},
      {"detection_recovery", t.blame.detection_recovery_s},
      {"failover", t.blame.failover_s},
      {"idle_tail", t.blame.idle_tail_s}};
  for (const auto& [cause, s] : causes)
    result.add(std::string("blame.") + cause + "_frac", s / t.blame_window_s,
               "frac");
  result.add("obs.spans", t.spans, "count");
  result.add("obs.blame_host_s", median(blame_host_s), "s");
  result.add("trace.overhead_frac",
             median(traced.pass_s) / median(plain.pass_s) - 1.0, "frac");
  result.add("setup.grid_s", setup_median(&SetupTimes::grid_s), "s");
  result.add("setup.tasks_s", setup_median(&SetupTimes::tasks_s), "s");
  result.add("setup.arrivals_s", setup_median(&SetupTimes::arrivals_s), "s");

  if (!args.trace_out.empty()) {
    if (!obs::write_chrome_trace_file(args.trace_out, host_spans.records())) {
      std::cerr << "perfbench: cannot write " << args.trace_out << "\n";
      return 1;
    }
    std::cout << "host trace: " << args.trace_out << " ("
              << host_spans.records().size() << " spans)\n";
  }
  std::cout << plain.outcomes.size() << " untraced + "
            << traced.outcomes.size() << " traced passes\n";
  result.print(std::cout);
  return 0;
}
