// Job stream: a day in the life of a multi-tenant GridService.
//
// Every other example runs ONE engine over a dedicated pool.  Here a
// resident GridService owns the pool and a compressed "day" of jobs
// arrives open-loop — non-homogeneous Poisson with a diurnal rate swing —
// drawn from the three farm applications (Mandelbrot sweeps, alignment
// batches, quadrature refinement).  The service time-shares the nodes
// across whatever is live under weighted fair share over delivered mops,
// and one tenant's calibration samples warm-start the next tenant's
// Algorithm-1 pass through the shared pool-wide cache.
//
//   ./job_stream [key=value ...] [--trace-out t.json] [--metrics-out m.jsonl]
//   e.g. ./job_stream horizon=600 rate_per_min=20 max_share=0.3
//
// --trace-out writes a Chrome trace-event file where every tenant is one
// "job" span subtree (load it in Perfetto: overlapping subtrees ARE the
// multi-tenancy); --metrics-out streams the shared registry, including
// the per-job "job.<seq>." scoped views, as JSONL.
#include <iostream>

#include "bench/common.hpp"
#include "obs/flight_recorder.hpp"
#include "svc/grid_service.hpp"
#include "support/config.hpp"
#include "workloads/applications.hpp"

int main(int argc, char** argv) {
  using namespace grasp;

  const bench::ObsOptions obs_opts = bench::parse_obs_options(argc, argv);
  Config cfg;
  cfg.override_with(bench::non_obs_args(argc, argv));
  const auto nodes = cfg.get_count("nodes", 16);
  const double horizon = cfg.get_double("horizon", 480.0);
  const double rate_per_min = cfg.get_double("rate_per_min", 12.0);
  const double max_share = cfg.get_double("max_share", 0.45);
  const auto seed = static_cast<std::uint64_t>(cfg.get_int("seed", 42));

  gridsim::ScenarioParams sp;
  sp.node_count = nodes;
  sp.sites = 2;
  sp.dynamics = gridsim::Dynamics::Stable;
  sp.seed = seed;
  gridsim::Grid grid = gridsim::make_grid(sp);

  workloads::JobArrivalParams ap;
  ap.horizon = Seconds{horizon};
  ap.base_rate_per_s = rate_per_min / 60.0;
  ap.diurnal_amplitude = 0.6;
  ap.diurnal_period = Seconds{horizon / 2.0};
  ap.diurnal_phase = 0.75;
  ap.kind_weights = {2.0, 1.0, 1.0};
  ap.seed = seed + 13;
  const auto arrivals = workloads::make_job_arrivals(ap);

  obs::Telemetry telemetry;
  obs::FlightRecorder flight(256);
  if (!obs_opts.flight_out.empty()) {
    flight.set_dump_path(obs_opts.flight_out);
    telemetry.flight = &flight;
  }
  svc::GridService::Params params;
  params.telemetry = &telemetry;
  core::SimBackend backend(grid);
  svc::GridService service(backend, grid, grid.node_ids(), params);

  std::vector<svc::JobHandle> handles;
  std::vector<std::size_t> sizes;
  for (const workloads::JobArrival& a : arrivals) {
    const auto kind = static_cast<workloads::ApplicationKind>(a.kind);
    workloads::TaskSet tasks =
        workloads::make_application_task_set(kind, a.seed);
    sizes.push_back(tasks.size());
    svc::JobOptions opt;
    opt.name = workloads::to_string(kind);
    opt.max_share = max_share;
    opt.min_nodes = 2;
    handles.push_back(service.submit_at(
        a.at,
        svc::FarmJob{core::make_adaptive_farm_params(), std::move(tasks)},
        opt));
  }
  service.wait_all();

  if (!bench::export_telemetry(telemetry, obs_opts)) return 1;

  std::cout << "job stream: " << arrivals.size() << " arrivals over "
            << horizon << " virtual seconds, " << nodes
            << " nodes, max_share=" << max_share << "\n\n";

  // Per-tenant timeline: arrival, wait, run, calibration bill.
  Table timeline({"job", "kind", "arrived_s", "wait_s", "ran_s",
                  "calib_tasks", "status"});
  bool conserved = true;
  std::size_t total_calibration = 0;
  for (std::size_t j = 0; j < handles.size(); ++j) {
    const svc::JobHandle& h = handles[j];
    std::size_t calibration = 0;
    if (h.has_farm_report()) {
      const core::FarmReport& r = h.farm_report();
      calibration = r.calibration_tasks;
      total_calibration += calibration;
      if (r.tasks_completed + r.calibration_tasks != sizes[j])
        conserved = false;
    } else if (h.status() != svc::JobStatus::Rejected) {
      conserved = false;
    }
    timeline.add_row({Table::num(static_cast<long long>(h.id())), h.name(),
                      Table::num(h.submitted_at().value, 1),
                      Table::num(h.queue_wait_s(), 1),
                      Table::num(h.makespan_s(), 1),
                      Table::num(static_cast<long long>(calibration)),
                      svc::to_string(h.status())});
  }
  std::cout << timeline.to_string();

  const auto& cache = service.calibration_cache();
  std::cout << "\npeak concurrent tenants: "
            << service.max_concurrent_observed()
            << "   completed: " << service.jobs_completed()
            << "   calibration cache: " << cache.stores() << " stores, "
            << cache.hits() << " hits (" << total_calibration
            << " probe tasks across the whole stream)\n"
            << (conserved
                    ? "every tenant conserved its tasks — completed + "
                      "calibration == its own set size"
                    : "INCOMPLETE STREAM — conservation violated")
            << "\n";
  return (conserved && service.jobs_failed() == 0 &&
          service.max_concurrent_observed() >= 2)
             ? 0
             : 1;
}
