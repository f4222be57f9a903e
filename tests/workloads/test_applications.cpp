#include "workloads/applications.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <latch>
#include <limits>
#include <stdexcept>
#include <thread>

#include "support/rng.hpp"
#include "support/stats.hpp"

namespace grasp::workloads {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Mandelbrot, TileCountAndIrregularity) {
  MandelbrotSweepParams p;
  p.tiles_x = 8;
  p.tiles_y = 8;
  p.probe_resolution = 8;
  const TaskSet set = make_mandelbrot_sweep(p);
  ASSERT_EQ(set.size(), 64u);
  std::vector<double> costs;
  for (const auto& t : set.tasks) {
    EXPECT_GT(t.work.value, 0.0);
    costs.push_back(t.work.value);
  }
  // Tiles near the set are far heavier than far-field tiles: the sweep is
  // genuinely irregular.
  EXPECT_GT(max_value(costs) / min_value(costs), 10.0);
}

TEST(Mandelbrot, DeterministicCosts) {
  MandelbrotSweepParams p;
  const TaskSet a = make_mandelbrot_sweep(p);
  const TaskSet b = make_mandelbrot_sweep(p);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_DOUBLE_EQ(a.tasks[i].work.value, b.tasks[i].work.value);
}

TEST(Mandelbrot, RejectsZeroDimensions) {
  MandelbrotSweepParams p;
  p.tiles_x = 0;
  EXPECT_THROW((void)make_mandelbrot_sweep(p), std::invalid_argument);
}

TEST(Mandelbrot, RejectsHostileParams) {
  auto rejects = [](auto mutate) {
    MandelbrotSweepParams p;
    p.tiles_x = p.tiles_y = p.probe_resolution = 2;
    mutate(p);
    EXPECT_THROW((void)make_mandelbrot_sweep(p), std::invalid_argument);
  };
  rejects([](MandelbrotSweepParams& p) { p.max_iterations = 0; });
  rejects([](MandelbrotSweepParams& p) { p.mops_per_kilo_iteration = kNaN; });
  rejects([](MandelbrotSweepParams& p) { p.mops_per_kilo_iteration = kInf; });
  rejects([](MandelbrotSweepParams& p) { p.mops_per_kilo_iteration = 0.0; });
  rejects([](MandelbrotSweepParams& p) { p.mops_per_kilo_iteration = -1.0; });
  rejects([](MandelbrotSweepParams& p) { p.tile_input_bytes = -1.0; });
  rejects([](MandelbrotSweepParams& p) { p.tile_input_bytes = kNaN; });
  rejects([](MandelbrotSweepParams& p) { p.tile_input_bytes = kInf; });
  rejects([](MandelbrotSweepParams& p) { p.tile_output_bytes = -1.0; });
  rejects([](MandelbrotSweepParams& p) { p.tile_output_bytes = kNaN; });
  rejects([](MandelbrotSweepParams& p) { p.tile_output_bytes = kInf; });
  // Zero-byte tiles stay legal.
  MandelbrotSweepParams p;
  p.tiles_x = p.tiles_y = p.probe_resolution = 2;
  p.tile_input_bytes = p.tile_output_bytes = 0.0;
  EXPECT_NO_THROW((void)make_mandelbrot_sweep(p));
}

// The Mandelbrot application set as its documented direct sweep: 8x8
// tiles, 8x8 probes, 512 iterations, and a per-tile cost scale drawn from
// the seed.
TaskSet documented_application_sweep(std::uint64_t seed) {
  MandelbrotSweepParams p;
  p.tiles_x = 8;
  p.tiles_y = 8;
  p.probe_resolution = 8;
  p.max_iterations = 512;
  p.mops_per_kilo_iteration = 1.0 + 0.5 * Rng(seed).uniform();
  return make_mandelbrot_sweep(p);
}

void expect_same_tasks(const TaskSet& got, const TaskSet& want) {
  EXPECT_EQ(got.name, want.name);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got.tasks[i].id, want.tasks[i].id) << "task " << i;
    EXPECT_EQ(got.tasks[i].work, want.tasks[i].work) << "task " << i;
    EXPECT_EQ(got.tasks[i].input, want.tasks[i].input) << "task " << i;
    EXPECT_EQ(got.tasks[i].output, want.tasks[i].output) << "task " << i;
  }
}

TEST(Mandelbrot, ApplicationSweepMatchesDirectSweepBitForBit) {
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    SCOPED_TRACE(seed);
    expect_same_tasks(
        make_application_task_set(ApplicationKind::MandelbrotSweep, seed),
        documented_application_sweep(seed));
  }
}

// ctest runs each test in its own process, so these four calls are the
// process's first application sweeps and race on whatever state the
// generator sets up on first use.
TEST(Mandelbrot, ConcurrentFirstCallsAgree) {
  constexpr std::array<std::uint64_t, 4> kSeeds = {3, 17, 101, 4099};
  std::array<TaskSet, kSeeds.size()> got;
  std::latch start(kSeeds.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kSeeds.size(); ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      got[i] = make_application_task_set(ApplicationKind::MandelbrotSweep,
                                         kSeeds[i]);
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t i = 0; i < kSeeds.size(); ++i) {
    SCOPED_TRACE(kSeeds[i]);
    expect_same_tasks(got[i], documented_application_sweep(kSeeds[i]));
    expect_same_tasks(got[i], make_application_task_set(
                                  ApplicationKind::MandelbrotSweep, kSeeds[i]));
  }
}

TEST(Alignment, CostsScaleWithLengthProduct) {
  AlignmentBatchParams p;
  p.pairs = 2000;
  const TaskSet set = make_alignment_batch(p);
  ASSERT_EQ(set.size(), 2000u);
  for (const auto& t : set.tasks) {
    EXPECT_GT(t.work.value, 0.0);
    EXPECT_GT(t.input.value, 32.0);  // at least two minimal sequences
  }
  // Mean cost should be near mops_per_megacell * E[m]*E[n]/1e6 (lognormal
  // lengths are independent).
  std::vector<double> costs;
  for (const auto& t : set.tasks) costs.push_back(t.work.value);
  const double expected = p.mops_per_megacell *
                          (p.mean_query_len * p.mean_subject_len) / 1e6;
  EXPECT_NEAR(mean(costs), expected, expected * 0.15);
}

TEST(Alignment, RejectsHostileParams) {
  auto rejects = [](auto mutate) {
    AlignmentBatchParams p;
    p.pairs = 4;
    mutate(p);
    EXPECT_THROW((void)make_alignment_batch(p), std::invalid_argument);
  };
  rejects([](AlignmentBatchParams& p) { p.pairs = 0; });
  rejects([](AlignmentBatchParams& p) { p.mean_query_len = kNaN; });
  rejects([](AlignmentBatchParams& p) { p.mean_query_len = kInf; });
  rejects([](AlignmentBatchParams& p) { p.mean_query_len = 0.0; });
  rejects([](AlignmentBatchParams& p) { p.mean_subject_len = kNaN; });
  rejects([](AlignmentBatchParams& p) { p.mean_subject_len = kInf; });
  rejects([](AlignmentBatchParams& p) { p.mean_subject_len = -5.0; });
  rejects([](AlignmentBatchParams& p) { p.length_cv = kNaN; });
  rejects([](AlignmentBatchParams& p) { p.length_cv = kInf; });
  rejects([](AlignmentBatchParams& p) { p.length_cv = -0.1; });
  rejects([](AlignmentBatchParams& p) { p.mops_per_megacell = kNaN; });
  rejects([](AlignmentBatchParams& p) { p.mops_per_megacell = kInf; });
  rejects([](AlignmentBatchParams& p) { p.mops_per_megacell = 0.0; });
  // A zero coefficient of variation is a fixed-length batch, not an error.
  AlignmentBatchParams p;
  p.pairs = 4;
  p.length_cv = 0.0;
  EXPECT_NO_THROW((void)make_alignment_batch(p));
}

TEST(Quadrature, RefinedPanelsAreRareAndHeavy) {
  QuadratureParams p;
  p.panels = 10000;
  const TaskSet set = make_quadrature_panels(p);
  std::size_t heavy = 0;
  for (const auto& t : set.tasks)
    if (t.work.value > p.mean_mops * 2.0) ++heavy;
  const double frac = static_cast<double>(heavy) / 10000.0;
  EXPECT_NEAR(frac, p.refine_probability, 0.02);
}

TEST(Quadrature, RejectsHostileParams) {
  auto rejects = [](auto mutate) {
    QuadratureParams p;
    p.panels = 4;
    mutate(p);
    EXPECT_THROW((void)make_quadrature_panels(p), std::invalid_argument);
  };
  rejects([](QuadratureParams& p) { p.panels = 0; });
  rejects([](QuadratureParams& p) { p.mean_mops = kNaN; });
  rejects([](QuadratureParams& p) { p.mean_mops = kInf; });
  rejects([](QuadratureParams& p) { p.mean_mops = 0.0; });
  rejects([](QuadratureParams& p) { p.mean_mops = -1.0; });
  rejects([](QuadratureParams& p) { p.refine_probability = kNaN; });
  rejects([](QuadratureParams& p) { p.refine_probability = -0.01; });
  rejects([](QuadratureParams& p) { p.refine_probability = 1.01; });
  rejects([](QuadratureParams& p) { p.refine_factor = kNaN; });
  rejects([](QuadratureParams& p) { p.refine_factor = kInf; });
  rejects([](QuadratureParams& p) { p.refine_factor = 0.0; });
  rejects([](QuadratureParams& p) { p.refine_factor = -2.0; });
  // Both ends of the probability range stay legal.
  for (const double prob : {0.0, 1.0}) {
    QuadratureParams p;
    p.panels = 4;
    p.refine_probability = prob;
    EXPECT_NO_THROW((void)make_quadrature_panels(p));
  }
}

TEST(ImagePipeline, StagesAreUnbalancedWithSegmentDominant) {
  ImagePipelineParams p;
  const PipelineSpec spec = make_image_pipeline(p);
  ASSERT_EQ(spec.depth(), 5u);
  const auto heaviest = std::max_element(
      spec.stages.begin(), spec.stages.end(),
      [](const StageSpec& a, const StageSpec& b) {
        return a.work_per_item < b.work_per_item;
      });
  EXPECT_EQ(heaviest->name, "segment");
  EXPECT_DOUBLE_EQ(spec.source_bytes.value, p.frame_bytes);
}

TEST(ImagePipeline, StageCountClampsAndScales) {
  ImagePipelineParams p;
  p.stages = 3;
  p.work_scale = 2.0;
  const PipelineSpec spec = make_image_pipeline(p);
  ASSERT_EQ(spec.depth(), 3u);
  EXPECT_DOUBLE_EQ(spec.stages[0].work_per_item.value, 80.0);  // 40 * 2
  p.stages = 6;
  EXPECT_THROW((void)make_image_pipeline(p), std::invalid_argument);
  p.stages = 2;
  EXPECT_THROW((void)make_image_pipeline(p), std::invalid_argument);
}

TEST(UniformPipeline, AllStagesEqual) {
  const PipelineSpec spec = make_uniform_pipeline(4, 25.0, 1e4);
  ASSERT_EQ(spec.depth(), 4u);
  for (const auto& s : spec.stages) {
    EXPECT_DOUBLE_EQ(s.work_per_item.value, 25.0);
    EXPECT_DOUBLE_EQ(s.output_bytes.value, 1e4);
  }
  EXPECT_DOUBLE_EQ(spec.work_per_item().value, 100.0);
  EXPECT_THROW((void)make_uniform_pipeline(0, 1.0, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace grasp::workloads
