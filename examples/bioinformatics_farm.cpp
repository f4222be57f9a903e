// Sequence-alignment farm on the *threaded* backend: real work, real
// concurrency, same skeleton.
//
// Every task genuinely runs Smith–Waterman local alignment (the actual DP,
// see workloads/kernels.hpp) inside a ThreadBackend worker thread, attached
// through FarmParams::calibration.task_body.  The engine still charges the
// grid model's heterogeneous timing (scaled so the demo finishes in about a
// second of wall clock).  The same farm is then replayed on the simulator —
// identical skeleton code path, no bodies executed — as the API-equivalence
// demonstration.
//
//   ./bioinformatics_farm [key=value ...]   e.g. pairs=60 time_scale=0.0005
#include <iostream>
#include <mutex>
#include <vector>

#include "core/backend_sim.hpp"
#include "core/backend_thread.hpp"
#include "core/baselines.hpp"
#include "core/task_farm.hpp"
#include "gridsim/scenarios.hpp"
#include "support/config.hpp"
#include "support/table.hpp"
#include "workloads/applications.hpp"
#include "workloads/kernels.hpp"

int main(int argc, char** argv) {
  using namespace grasp;

  Config cfg;
  cfg.override_with({argv + 1, argv + argc});
  const auto pairs = cfg.get_count("pairs", 60);
  const double time_scale = cfg.get_double("time_scale", 5e-4);

  // Queries vs database subjects; task costs follow the real m*n DP size.
  workloads::AlignmentBatchParams ap;
  ap.pairs = pairs;
  ap.mean_query_len = 120.0;
  ap.mean_subject_len = 360.0;
  ap.mops_per_megacell = 200.0;
  const workloads::TaskSet batch = workloads::make_alignment_batch(ap);

  std::vector<std::string> queries, subjects;
  for (std::size_t i = 0; i < pairs; ++i) {
    // Sequence lengths mirror the task's declared input payload.
    const double total = batch.tasks[i].input.value;
    const auto qlen = static_cast<std::size_t>(total / 4.0);
    const auto slen =
        static_cast<std::size_t>(total - static_cast<double>(qlen));
    queries.push_back(workloads::random_dna(qlen, 1000 + i));
    subjects.push_back(workloads::random_dna(slen, 2000 + i));
  }

  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 150.0);

  // Attach the real alignment as the per-task body.  It runs on whichever
  // worker thread the farm dispatched the task to.
  std::vector<int> scores(pairs, -1);
  std::mutex scores_mutex;
  core::FarmParams params = core::make_demand_farm_params();
  params.monitor.period = Seconds{5.0};
  params.calibration.task_body = [&](const workloads::TaskSpec& task) {
    const std::size_t i = task.id.value;
    const int score =
        workloads::smith_waterman_score(queries[i], subjects[i]);
    const std::lock_guard<std::mutex> lock(scores_mutex);
    scores[i] = score;
  };

  // --- Run 1: real threads, really aligning. -----------------------------
  core::ThreadBackend::Params bp;
  bp.time_scale = time_scale;
  core::FarmReport thread_report;
  {
    core::ThreadBackend backend(grid, bp);
    thread_report =
        core::TaskFarm(params).run(backend, grid, grid.node_ids(), batch);
  }
  std::size_t aligned = 0;
  for (const int s : scores)
    if (s >= 0) ++aligned;

  // --- Run 2: identical farm on the simulator (bodies ignored). ----------
  core::FarmReport sim_report;
  {
    core::SimBackend backend(grid);
    sim_report =
        core::TaskFarm(params).run(backend, grid, grid.node_ids(), batch);
  }

  Table table({"backend", "makespan_virtual_s", "tasks", "alignments_run"});
  table.add_row({"threads (real DP)",
                 Table::num(thread_report.makespan.value, 2),
                 std::to_string(thread_report.tasks_completed +
                                thread_report.calibration_tasks),
                 std::to_string(aligned)});
  table.add_row({"simulated (model only)",
                 Table::num(sim_report.makespan.value, 2),
                 std::to_string(sim_report.tasks_completed +
                                sim_report.calibration_tasks),
                 "0 (bodies not run)"});
  std::cout << table.to_string() << '\n';

  int best = 0;
  std::size_t best_idx = 0;
  for (std::size_t i = 0; i < pairs; ++i)
    if (scores[i] > best) {
      best = scores[i];
      best_idx = i;
    }
  std::cout << "aligned " << aligned << "/" << pairs
            << " query/subject pairs on worker threads; best local "
            << "alignment score " << best << "\n(pair " << best_idx << ", "
            << queries[best_idx].size() << " x " << subjects[best_idx].size()
            << " residues)\nboth backends executed the identical TaskFarm "
               "code path.\n";
  return 0;
}
