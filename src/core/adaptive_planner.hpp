// Adaptive partition planner: sample → analyze → optimize.
//
// The paper's own result (Fig. 5/7) is that the best partitioning scheme
// depends on the data — MR-Angle wins on most families, pivot cells on
// heavily clustered data, MR-Grid occasionally when pruning bites. The
// static heuristics in planner.hpp encode those findings as fixed rules;
// this planner instead *measures* the resident dataset, SATO-style
// (Aji et al., "Effective Spatial Data Partitioning for Scalable Query
// Processing"):
//
//  1. sample  — a deterministic without-replacement sample of the dataset
//     (the same machinery the pipeline's fit-sampling uses);
//  2. analyze — for every candidate (scheme × Np), fit the partitioner on
//     the sample, read balance and prunable mass off
//     part::analyze_partitioning, and compute the *actual* per-partition
//     sample skylines (cheap at sample scale) so the merge-input
//     prediction reflects this data, not a closed form;
//  3. optimize — extrapolate sample measurements to full scale with the
//     independent-data growth law (cost_model.hpp), price the map /
//     shuffle / local-skyline / merge phases of every (scheme × Np ×
//     fan-in × salting) candidate with calibrated per-work-unit costs,
//     and pick the cheapest plan.
//
// Candidate phases are priced the way the pipeline actually executes
// them: per-reduce-key task costs scheduled LPT onto the process's worker
// lanes (mr::lpt_makespan), salting split with the same k_p formula
// run_mr_skyline uses, and merge rounds simulated as the real fan-in
// cascade over the sample skylines. The Ciaccia & Martinenghi trade-off
// (when is a parallel merge round worth its extra job overhead?) falls
// out of seconds_per_job versus the LPT win.
//
// Datasets too small to sample meaningfully fall back to the static
// heuristic (plan_config) — at that scale every plan finishes in
// microseconds and the planner would cost more than it saves.
//
// The planner does not model MRSkylineConfig::representative_filter: it
// prices every row through map, shuffle and local skyline, and its
// resolved config keeps the base config's filter setting. The filter drops
// the same rows whatever the candidate, before assignment, so a filtered
// run's predicted wall runs high for every candidate (DESIGN.md decision
// 17).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/core/cost_model.hpp"
#include "src/core/mr_skyline.hpp"

namespace mrsky::core {

struct AdaptivePlannerOptions {
  /// Planning sample size; the sample is the whole dataset when smaller.
  std::size_t sample_size = 2048;
  /// Seed for the deterministic planning sample. Defaults to the same seed
  /// the pipeline's fit-sampling uses so plan and fit see consistent data.
  std::uint64_t sample_seed = 0x5a3e;
  /// Below this many points the planner skips sampling entirely and returns
  /// the static heuristic (plan_config) — see AdaptivePlan::fallback.
  std::size_t min_points = 512;

  /// Schemes to enumerate; empty means {dimensional, grid, angular, pivot}
  /// (the paper's three plus the clustered-data specialist).
  std::vector<part::Scheme> schemes;
  /// Partition counts to try, as multiples of config.servers; empty means
  /// {1, 2, 4} (the paper's 2× bracketed from both sides).
  std::vector<std::size_t> partitions_per_server;
  /// Merge fan-ins to try; empty means {0, 4} (single reducer vs. tree).
  std::vector<std::size_t> merge_fan_ins;
  /// Also price every candidate with salting enabled.
  bool consider_salting = true;

  /// Cost constants to price with; unset means the process-wide calibrated
  /// model (CostModel::process()). Tests pin explicit constants here.
  std::optional<CostConstants> constants;
};

/// One priced candidate plan. Predicted seconds are in-process estimates —
/// their absolute values are only as good as the calibration, but the
/// *ranking* is what the planner consumes.
struct PlanCandidate {
  part::Scheme scheme = part::Scheme::kAngular;
  std::size_t partitions = 0;
  std::size_t merge_fan_in = 0;  ///< 0 = single-reducer merge
  bool salted = false;

  double balance_cv = 0.0;          ///< sample assignment balance (lower = flatter)
  double prunable_fraction = 0.0;   ///< sample mass inside prunable partitions
  double predicted_merge_input = 0.0;  ///< full-scale records entering the merge

  double map_seconds = 0.0;      ///< partition assignment over the full input
  double shuffle_seconds = 0.0;  ///< record materialisation, all rounds
  double local_seconds = 0.0;    ///< per-key local skylines, LPT over lanes
  double merge_seconds = 0.0;    ///< merge cascade + per-round job overhead

  [[nodiscard]] double total_seconds() const noexcept {
    return map_seconds + shuffle_seconds + local_seconds + merge_seconds;
  }
};

struct AdaptivePlan {
  /// Fully resolved configuration: never scheme=kAuto, always validate()s.
  MRSkylineConfig config;
  /// The winning candidate (meaningful only when !fallback).
  PlanCandidate chosen;
  /// Every scored candidate, cheapest first (empty when fallback).
  std::vector<PlanCandidate> candidates;
  /// True when the static heuristic decided (dataset under min_points, or
  /// no candidate survived enumeration).
  bool fallback = false;
  std::size_t sample_points = 0;   ///< points the planner actually analyzed
  double planning_seconds = 0.0;   ///< wall cost of planning itself
  std::string rationale;           ///< one line per decision, human-readable
};

class AdaptivePlanner {
 public:
  explicit AdaptivePlanner(AdaptivePlannerOptions options = {});

  /// Plans a pipeline configuration for `input`. `base` supplies everything
  /// the planner does not decide (servers, algorithm, run options, fit
  /// sampling, pruning toggle …) and is copied into the result with the
  /// decided fields (scheme, num_partitions, merge_fan_in, salting)
  /// overwritten. `base.scheme` may be kAuto; the result's never is.
  [[nodiscard]] AdaptivePlan plan(const data::PointSet& input,
                                  const MRSkylineConfig& base) const;

  /// Streaming variant: draws the planning sample from the source block by
  /// block (nothing is materialised), plans on it exactly as the PointSet
  /// overload would, then discounts the predicted map/shuffle phases by the
  /// fraction of on-disk bytes the pipeline's pre-shuffle block pruning is
  /// expected to skip (estimated from block min corners against the sample
  /// skyline). The discount is uniform across candidates, so it tightens
  /// the absolute predictions without changing the ranking. Sources with a
  /// resident PointSet delegate to the overload above.
  [[nodiscard]] AdaptivePlan plan(const data::DatasetSource& source,
                                  const MRSkylineConfig& base) const;

  [[nodiscard]] const AdaptivePlannerOptions& options() const noexcept { return options_; }

 private:
  /// Shared analyze + optimize stages over an already-drawn sample standing
  /// in for `full_n` points. Does not set `planning_seconds` — each public
  /// overload stamps its own wall clock (sampling included).
  [[nodiscard]] AdaptivePlan plan_on_sample(const data::PointSet& sample, std::size_t full_n,
                                            std::size_t dim, const MRSkylineConfig& base) const;

  AdaptivePlannerOptions options_;
};

}  // namespace mrsky::core
