// Skyline extensions beyond the plain operator.
//
// The paper's related work motivates three natural generalisations, all used
// in QoS-based service selection:
//  * k-skyband (Papadias et al., SIGMOD'03) — points dominated by fewer than
//    k others; the skyline is the 1-skyband. Gives "near-optimal" fallbacks
//    when skyline services are saturated (paper §I's QoS-degradation worry).
//  * representative skyline (Lin et al., ICDE'07 [23]) — the k skyline
//    points that together dominate the most of the dataset; what a portal
//    actually shows when the full skyline is too large.
//  * weighted top-k selection (Alrifai et al., WWW'10 [8]) — rank skyline
//    members by a user's attribute weights; the classic final step of a
//    service-selection pipeline.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/dataset/point_set.hpp"
#include "src/skyline/dominance.hpp"

namespace mrsky::skyline {

/// Points dominated by fewer than `k` others (k >= 1; k = 1 is the skyline).
/// O(n²) pairwise; counts each dominance test in `stats` if provided.
[[nodiscard]] data::PointSet k_skyband(const data::PointSet& ps, std::size_t k,
                                       SkylineStats* stats = nullptr);

struct RepresentativeResult {
  data::PointSet representatives{1};       ///< at most k skyline points
  std::vector<std::size_t> coverage;       ///< points newly dominated by each pick
  std::size_t total_covered = 0;           ///< dataset points dominated by the picks
};

/// Greedy max-coverage representative skyline: repeatedly picks the skyline
/// point that dominates the most not-yet-covered dataset points (the
/// standard (1−1/e)-approximation of Lin et al.'s max-dominance objective).
/// Returns fewer than k points when the skyline is smaller than k.
[[nodiscard]] RepresentativeResult representative_skyline(const data::PointSet& ps,
                                                          std::size_t k);

struct ScoredPoint {
  data::PointId id = 0;
  double score = 0.0;
};

/// Ranks every row of `skyline` — the caller's skyline, in any order — by
/// the weighted sum of its (minimisation-oriented) attributes, summed in
/// attribute order; smaller score is better. Returns the best `k` entries in
/// (score, id) order. `weights` must be non-negative, one per attribute.
/// A resident skyline (the QueryEngine's snapshot) is ranked without
/// rescanning the dataset it came from.
[[nodiscard]] std::vector<ScoredPoint> top_k_of_skyline(const data::PointSet& skyline,
                                                        std::span<const double> weights,
                                                        std::size_t k);

/// top_k_of_skyline over the BNL skyline of `ps`.
[[nodiscard]] std::vector<ScoredPoint> top_k_weighted(const data::PointSet& ps,
                                                      std::span<const double> weights,
                                                      std::size_t k);

/// ε-Pareto cover (Papadimitriou & Yannakakis 2000): a subset S of the
/// skyline such that every dataset point p has some s in S with
/// s_a <= (1+epsilon) * p_a in every attribute. Users tolerant of an ε
/// relative slack get a much shorter list with a per-attribute guarantee.
/// Greedy construction over the skyline in ascending coordinate-sum order;
/// requires non-negative coordinates and epsilon >= 0 (epsilon = 0
/// collapses only exact duplicates).
[[nodiscard]] data::PointSet epsilon_pareto_cover(const data::PointSet& ps, double epsilon);

}  // namespace mrsky::skyline
