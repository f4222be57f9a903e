#include "core/grasp.hpp"

#include <gtest/gtest.h>

#include "core/baselines.hpp"
#include "gridsim/scenarios.hpp"
#include "obs/telemetry.hpp"
#include "workloads/applications.hpp"
#include "workloads/generators.hpp"

namespace grasp::core {
namespace {

workloads::TaskSet tasks(std::size_t n) {
  workloads::TaskSetParams p;
  p.count = n;
  return workloads::make_task_set(p);
}

TEST(Grasp, FourPhaseTimelineForFarm) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(4, 100.0);
  GraspProgram program("app");
  program.use_task_farm(make_adaptive_farm_params()).with_tasks(tasks(100));
  const RunSummary summary = program.compile(grid).execute();

  ASSERT_GE(summary.phases.size(), 4u);
  EXPECT_EQ(summary.phases[0].phase, "programming");
  EXPECT_EQ(summary.phases[1].phase, "compilation");
  EXPECT_EQ(summary.phases[2].phase, "calibration");
  EXPECT_EQ(summary.phases[3].phase, "execution");
  EXPECT_EQ(summary.skeleton, "task_farm");
  ASSERT_TRUE(summary.farm.has_value());
  EXPECT_FALSE(summary.pipeline.has_value());
  EXPECT_GT(summary.makespan().value, 0.0);
  // Timeline is contiguous: execution picks up where calibration ends.
  EXPECT_DOUBLE_EQ(summary.phases[3].began.value,
                   summary.phases[2].ended.value);
}

TEST(Grasp, FeedbackTransitionsMatchRecalibrations) {
  gridsim::GridBuilder b;
  const SiteId s = b.add_site("a");
  for (int i = 0; i < 3; ++i) b.add_node(s, 300.0);
  for (int i = 0; i < 3; ++i) b.add_node(s, 150.0);
  gridsim::Grid grid = b.build();
  for (std::uint64_t i = 0; i < 3; ++i)
    gridsim::inject_load_step_on(grid, NodeId{i}, Seconds{40.0}, 9.0);

  FarmParams params = make_adaptive_farm_params();
  params.calibration.select_count = 3;
  workloads::TaskSetParams tp;
  tp.count = 600;
  tp.mean_mops = 200.0;
  tp.cv = 0.8;
  GraspProgram program("degrading");
  program.use_task_farm(params).with_tasks(workloads::make_task_set(tp));
  const RunSummary summary = program.compile(grid).execute();
  ASSERT_TRUE(summary.farm.has_value());
  EXPECT_EQ(summary.feedback_transitions, summary.farm->recalibrations);
  // Each feedback transition adds one calibration + one execution segment.
  std::size_t calibration_segments = 0;
  for (const auto& p : summary.phases)
    if (p.phase == "calibration") ++calibration_segments;
  EXPECT_EQ(calibration_segments, 1 + summary.feedback_transitions);
}

TEST(Grasp, PipelineSelection) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(6, 100.0);
  GraspProgram program("frames");
  PipelineParams params;
  program.use_pipeline(params, workloads::make_image_pipeline({}), 40);
  const RunSummary summary = program.compile(grid).execute();
  EXPECT_EQ(summary.skeleton, "pipeline");
  ASSERT_TRUE(summary.pipeline.has_value());
  EXPECT_EQ(summary.pipeline->items_completed, 40u);
}

TEST(Grasp, PoolRestriction) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(8, 100.0);
  GraspProgram program("subset");
  FarmParams params = make_demand_farm_params();
  obs::Telemetry tel;  // detail tier: the check reads per-task records
  params.telemetry = &tel;
  program.use_task_farm(params)
      .with_tasks(tasks(50))
      .on_nodes({NodeId{0}, NodeId{1}});
  const RunSummary summary = program.compile(grid).execute();
  ASSERT_TRUE(summary.farm.has_value());
  std::size_t completions = 0;
  for (const auto& e : summary.farm->trace.events()) {
    if (e.kind == gridsim::TraceEventKind::TaskCompleted) {
      EXPECT_LT(e.node.value, 2u);
      ++completions;
    }
  }
  EXPECT_EQ(completions,
            summary.farm->trace.count(gridsim::TraceEventKind::TaskCompleted));
  EXPECT_GT(completions, 0u);
}

TEST(Grasp, ProgrammingPhaseErrors) {
  const gridsim::Grid grid = gridsim::make_uniform_grid(2, 100.0);
  GraspProgram no_skeleton("empty");
  EXPECT_THROW((void)no_skeleton.compile(grid), std::logic_error);

  GraspProgram no_tasks("farm-without-tasks");
  no_tasks.use_task_farm(make_adaptive_farm_params());
  EXPECT_THROW((void)no_tasks.compile(grid), std::logic_error);

  GraspProgram both("double-select");
  both.use_task_farm(make_adaptive_farm_params());
  EXPECT_THROW(both.use_pipeline({}, workloads::make_image_pipeline({}), 1),
               std::logic_error);
}

}  // namespace
}  // namespace grasp::core
