#include "workloads/applications.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/rng.hpp"
#include "workloads/kernels.hpp"

namespace grasp::workloads {

namespace {

[[nodiscard]] bool positive_finite(double v) {
  return std::isfinite(v) && v > 0.0;
}
[[nodiscard]] bool non_negative_finite(double v) {
  return std::isfinite(v) && v >= 0.0;
}

// Row-major escape-time iteration count of each tile of the sweep window.
// Depends on the tile grid, probe resolution and iteration budget only,
// never on the cost scale or byte sizes.
std::vector<std::uint64_t> mandelbrot_tile_counts(
    const MandelbrotSweepParams& p) {
  constexpr double kXMin = -2.0, kXMax = 1.0;
  constexpr double kYMin = -1.25, kYMax = 1.25;
  const double tile_w = (kXMax - kXMin) / static_cast<double>(p.tiles_x);
  const double tile_h = (kYMax - kYMin) / static_cast<double>(p.tiles_y);
  std::vector<std::uint64_t> counts;
  counts.reserve(p.tiles_x * p.tiles_y);
  for (std::size_t ty = 0; ty < p.tiles_y; ++ty) {
    for (std::size_t tx = 0; tx < p.tiles_x; ++tx) {
      const double x0 = kXMin + static_cast<double>(tx) * tile_w;
      const double y0 = kYMin + static_cast<double>(ty) * tile_h;
      counts.push_back(mandelbrot_tile_iterations(
          x0, y0, tile_w, tile_h, p.probe_resolution, p.max_iterations));
    }
  }
  return counts;
}

// One task per tile, costed at `p`'s scale from the tile's iteration count.
TaskSet price_mandelbrot_tiles(const MandelbrotSweepParams& p,
                               const std::vector<std::uint64_t>& counts) {
  TaskSet set;
  set.name = "mandelbrot-" + std::to_string(p.tiles_x) + "x" +
             std::to_string(p.tiles_y);
  set.tasks.reserve(counts.size());
  for (std::size_t id = 0; id < counts.size(); ++id) {
    TaskSpec t;
    t.id = TaskId{id};
    t.work = Mops{p.mops_per_kilo_iteration *
                  static_cast<double>(counts[id]) / 1000.0};
    t.input = Bytes{p.tile_input_bytes};
    t.output = Bytes{p.tile_output_bytes};
    set.tasks.push_back(t);
  }
  return set;
}

}  // namespace

TaskSet make_mandelbrot_sweep(const MandelbrotSweepParams& p) {
  if (p.tiles_x == 0 || p.tiles_y == 0 || p.probe_resolution == 0)
    throw std::invalid_argument("make_mandelbrot_sweep: zero dimension");
  if (p.max_iterations == 0)
    throw std::invalid_argument("make_mandelbrot_sweep: zero max_iterations");
  if (!positive_finite(p.mops_per_kilo_iteration))
    throw std::invalid_argument(
        "make_mandelbrot_sweep: mops_per_kilo_iteration must be finite and > 0");
  if (!non_negative_finite(p.tile_input_bytes) ||
      !non_negative_finite(p.tile_output_bytes))
    throw std::invalid_argument(
        "make_mandelbrot_sweep: tile bytes must be finite and >= 0");
  return price_mandelbrot_tiles(p, mandelbrot_tile_counts(p));
}

TaskSet make_alignment_batch(const AlignmentBatchParams& p) {
  if (p.pairs == 0)
    throw std::invalid_argument("make_alignment_batch: zero pairs");
  if (!positive_finite(p.mean_query_len) ||
      !positive_finite(p.mean_subject_len))
    throw std::invalid_argument(
        "make_alignment_batch: mean lengths must be finite and > 0");
  if (!non_negative_finite(p.length_cv))
    throw std::invalid_argument(
        "make_alignment_batch: length_cv must be finite and >= 0");
  if (!positive_finite(p.mops_per_megacell))
    throw std::invalid_argument(
        "make_alignment_batch: mops_per_megacell must be finite and > 0");
  Rng rng(p.seed);
  const double sigma2 = std::log(1.0 + p.length_cv * p.length_cv);
  const double sigma = std::sqrt(sigma2);
  auto draw_len = [&](double mean) {
    const double mu = std::log(mean) - sigma2 / 2.0;
    return std::max(16.0, rng.lognormal(mu, sigma));
  };

  TaskSet set;
  set.name = "alignment-" + std::to_string(p.pairs);
  set.tasks.reserve(p.pairs);
  for (std::size_t i = 0; i < p.pairs; ++i) {
    const double m = draw_len(p.mean_query_len);
    const double n = draw_len(p.mean_subject_len);
    TaskSpec t;
    t.id = TaskId{i};
    t.work = Mops{p.mops_per_megacell * (m * n) / 1e6};
    t.input = Bytes{m + n};  // one byte per residue
    t.output = Bytes{256};   // score + traceback summary
    set.tasks.push_back(t);
  }
  return set;
}

TaskSet make_quadrature_panels(const QuadratureParams& p) {
  if (p.panels == 0)
    throw std::invalid_argument("make_quadrature_panels: zero panels");
  if (!positive_finite(p.mean_mops))
    throw std::invalid_argument(
        "make_quadrature_panels: mean_mops must be finite and > 0");
  if (!(p.refine_probability >= 0.0 && p.refine_probability <= 1.0))
    throw std::invalid_argument(
        "make_quadrature_panels: refine_probability must be in [0, 1]");
  if (!positive_finite(p.refine_factor))
    throw std::invalid_argument(
        "make_quadrature_panels: refine_factor must be finite and > 0");
  Rng rng(p.seed);
  TaskSet set;
  set.name = "quadrature-" + std::to_string(p.panels);
  set.tasks.reserve(p.panels);
  for (std::size_t i = 0; i < p.panels; ++i) {
    const bool refined = rng.bernoulli(p.refine_probability);
    const double jitter = rng.uniform(0.9, 1.1);
    TaskSpec t;
    t.id = TaskId{i};
    t.work = Mops{p.mean_mops * jitter * (refined ? p.refine_factor : 1.0)};
    t.input = Bytes{48};   // panel bounds + tolerance
    t.output = Bytes{16};  // partial integral + error estimate
    set.tasks.push_back(t);
  }
  return set;
}

PipelineSpec make_image_pipeline(const ImagePipelineParams& p) {
  if (p.stages < 3 || p.stages > 5)
    throw std::invalid_argument("make_image_pipeline: stages must be in 3..5");
  struct Proto {
    const char* name;
    double mops;
    double out_fraction;  // output bytes as fraction of frame
  };
  // Segment dominates: the pipeline is intentionally unbalanced.
  const Proto protos[5] = {
      {"decode", 40.0, 1.0},   {"denoise", 80.0, 1.0},
      {"segment", 240.0, 0.5}, {"annotate", 30.0, 0.5},
      {"encode", 60.0, 0.1},
  };
  PipelineSpec spec;
  spec.name = "image-pipeline-" + std::to_string(p.stages);
  spec.source_bytes = Bytes{p.frame_bytes};
  for (std::size_t s = 0; s < p.stages; ++s) {
    StageSpec stage;
    stage.id = StageId{s};
    stage.name = protos[s].name;
    stage.work_per_item = Mops{protos[s].mops * p.work_scale};
    stage.output_bytes = Bytes{p.frame_bytes * protos[s].out_fraction};
    spec.stages.push_back(stage);
  }
  return spec;
}

PipelineSpec make_uniform_pipeline(std::size_t depth, double stage_mops,
                                   double item_bytes) {
  if (depth == 0)
    throw std::invalid_argument("make_uniform_pipeline: zero depth");
  PipelineSpec spec;
  spec.name = "uniform-pipeline-" + std::to_string(depth);
  spec.source_bytes = Bytes{item_bytes};
  for (std::size_t s = 0; s < depth; ++s) {
    StageSpec stage;
    stage.id = StageId{s};
    stage.name = "stage" + std::to_string(s);
    stage.work_per_item = Mops{stage_mops};
    stage.output_bytes = Bytes{item_bytes};
    spec.stages.push_back(stage);
  }
  return spec;
}

const char* to_string(ApplicationKind kind) {
  switch (kind) {
    case ApplicationKind::MandelbrotSweep:
      return "mandelbrot";
    case ApplicationKind::AlignmentBatch:
      return "alignment";
    case ApplicationKind::QuadraturePanels:
      return "quadrature";
  }
  return "?";
}

TaskSet make_application_task_set(ApplicationKind kind, std::uint64_t seed) {
  switch (kind) {
    case ApplicationKind::MandelbrotSweep: {
      MandelbrotSweepParams p;
      p.tiles_x = 8;
      p.tiles_y = 8;
      p.probe_resolution = 8;
      // The tile counts are deterministic, so the process computes them
      // once (thread-safe static initialisation); the seed perturbs the
      // per-task cost scale so distinct tenants are not byte-identical
      // workloads.
      static const std::vector<std::uint64_t> counts =
          mandelbrot_tile_counts(p);
      p.mops_per_kilo_iteration = 1.0 + 0.5 * Rng(seed).uniform();
      return price_mandelbrot_tiles(p, counts);
    }
    case ApplicationKind::AlignmentBatch: {
      AlignmentBatchParams p;
      p.pairs = 120;
      p.seed = seed;
      return make_alignment_batch(p);
    }
    case ApplicationKind::QuadraturePanels: {
      QuadratureParams p;
      p.panels = 300;
      p.seed = seed;
      return make_quadrature_panels(p);
    }
  }
  throw std::invalid_argument("make_application_task_set: unknown kind");
}

}  // namespace grasp::workloads
