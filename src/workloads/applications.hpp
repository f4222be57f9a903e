// Shaped application workloads: the scenarios the paper's introduction
// motivates (scientific parameter sweeps, sequence comparison, staged media
// processing, numerical quadrature), expressed as task sets / pipelines.
//
// Costs are derived from the applications' real complexity structure
// (escape-time iteration counts, m*n dynamic-programming cells, per-pixel
// filter budgets) so the irregularity the skeletons face is the
// application's own, not an arbitrary distribution.
#pragma once

#include <cstdint>

#include "workloads/task.hpp"

namespace grasp::workloads {

/// Mandelbrot-style parameter sweep: the complex plane window
/// [-2,1]x[-1.25,1.25] is split into `tiles_x * tiles_y` tiles, one task per
/// tile.  Each tile's cost is its *actual* total escape-time iteration
/// count (computed here at `probe_resolution^2` sample points), scaled by
/// `mops_per_kilo_iteration`.  Border tiles near the set are orders of
/// magnitude heavier — the classic irregular sweep.  Throws
/// std::invalid_argument for a zero dimension or `max_iterations`, a
/// non-finite or non-positive cost scale, or negative/non-finite bytes.
struct MandelbrotSweepParams {
  std::size_t tiles_x = 16;
  std::size_t tiles_y = 16;
  std::size_t probe_resolution = 16;
  std::size_t max_iterations = 512;
  double mops_per_kilo_iteration = 1.0;
  double tile_input_bytes = 64;       ///< tile coordinates
  double tile_output_bytes = 16e3;    ///< rendered tile
};
[[nodiscard]] TaskSet make_mandelbrot_sweep(const MandelbrotSweepParams& p);

/// Pairwise sequence-alignment batch (Smith–Waterman shaped): query lengths
/// lognormal around `mean_query_len`, database entries around
/// `mean_subject_len`; cost per pair is m*n DP cells at `mops_per_megacell`.
/// Throws std::invalid_argument for zero pairs, a non-finite or
/// non-positive mean or cost scale, or a negative/non-finite `length_cv`.
struct AlignmentBatchParams {
  std::size_t pairs = 500;
  double mean_query_len = 400.0;
  double mean_subject_len = 2000.0;
  double length_cv = 0.6;
  double mops_per_megacell = 8.0;
  std::uint64_t seed = 42;
};
[[nodiscard]] TaskSet make_alignment_batch(const AlignmentBatchParams& p);

/// Adaptive-quadrature panels: mostly uniform cost with occasional refined
/// panels (near-regular farm workload; the contrast case to Mandelbrot).
/// Throws std::invalid_argument for zero panels, a non-finite or
/// non-positive `mean_mops` or `refine_factor`, or a `refine_probability`
/// outside [0, 1].
struct QuadratureParams {
  std::size_t panels = 2000;
  double mean_mops = 20.0;
  double refine_probability = 0.05;
  double refine_factor = 8.0;
  std::uint64_t seed = 42;
};
[[nodiscard]] TaskSet make_quadrature_panels(const QuadratureParams& p);

/// Video/image processing pipeline: decode -> denoise -> segment -> annotate
/// -> encode.  Stage costs are deliberately unbalanced (segment dominates)
/// so stage-to-node mapping matters.
struct ImagePipelineParams {
  double frame_bytes = 512e3;   ///< payload entering the pipeline per frame
  double work_scale = 1.0;      ///< multiplies every stage cost
  std::size_t stages = 5;       ///< 3..5: tail stages dropped if fewer
};
[[nodiscard]] PipelineSpec make_image_pipeline(const ImagePipelineParams& p);

/// Balanced synthetic pipeline of `depth` equal stages (control case).
[[nodiscard]] PipelineSpec make_uniform_pipeline(std::size_t depth,
                                                 double stage_mops,
                                                 double item_bytes);

/// The farm applications above as an indexable mix, sized for job-stream
/// runs: a GridService tenant is one of these task sets, not a
/// benchmark-scale sweep, so each kind materialises a few dozen to a few
/// hundred tasks.  `seed` varies the stochastic kinds (alignment lengths,
/// quadrature refinement).  For Mandelbrot, an 8x8-tile sweep whose tile
/// iteration counts are fixed, the seed draws the per-tile cost scale
/// (`mops_per_kilo_iteration` in [1, 1.5)); the count grid is computed
/// once per process and only re-priced per call.
enum class ApplicationKind : std::size_t {
  MandelbrotSweep = 0,
  AlignmentBatch = 1,
  QuadraturePanels = 2,
};

[[nodiscard]] constexpr std::size_t application_mix_size() { return 3; }
[[nodiscard]] const char* to_string(ApplicationKind kind);
[[nodiscard]] TaskSet make_application_task_set(ApplicationKind kind,
                                                std::uint64_t seed);

}  // namespace grasp::workloads
