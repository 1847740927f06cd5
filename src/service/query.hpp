// The QueryEngine's typed query surface (ISSUE 5).
//
// The paper motivates MapReduce skyline computation with a *live* service
// registry (§II): many queries and updates against one resident dataset, not
// a single batch run. This header defines the query algebra that registry
// serves — the plain skyline plus the service-selection generalisations from
// skyline/extensions.hpp — as a closed std::variant, so the engine can
// dispatch, canonicalise and cache every request through one type.
//
// Every query has a *canonical signature*: a byte-exact string encoding of
// its parameters (doubles are rendered as hex bit patterns, never decimal),
// used as the result-cache key together with the engine's dataset version.
// Two queries with the same signature are guaranteed to produce bitwise
// identical results on the same dataset version.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/dataset/point_set.hpp"
#include "src/skyline/extensions.hpp"

namespace mrsky::service {

/// The full skyline of the resident dataset (paper Algorithm 1).
struct SkylineQuery {};

/// Skyline over a projection onto `attributes` (data::project semantics:
/// indices must be in range; order and duplicates are respected).
struct SubspaceQuery {
  std::vector<std::size_t> attributes;
};

/// Points dominated by fewer than `k` others (k >= 1; 1 = the skyline).
struct KSkybandQuery {
  std::size_t k = 2;
};

/// Greedy max-coverage representative skyline of at most `k` points.
struct RepresentativeQuery {
  std::size_t k = 10;
};

/// Skyline members ranked by the weighted attribute sum, best `k` returned.
/// `weights` must be non-negative, one per attribute.
struct TopKWeightedQuery {
  std::vector<double> weights;
  std::size_t k = 10;
};

using Query = std::variant<SkylineQuery, SubspaceQuery, KSkybandQuery, RepresentativeQuery,
                           TopKWeightedQuery>;

/// Short kind tag: "skyline", "subspace", "k_skyband", "representative",
/// "top_k_weighted". Used in traces, metrics JSON and tables.
[[nodiscard]] std::string query_kind(const Query& query);

/// Canonical cache-key encoding of the query parameters (excluding the
/// dataset version, which the engine appends). Deterministic and byte-exact:
/// doubles are encoded as 64-bit hex patterns.
[[nodiscard]] std::string query_signature(const Query& query);

/// Validates `query` against a `dim`-attribute dataset and returns ALL
/// violations (empty = valid) — the same all-errors contract as
/// MRSkylineConfig::validate().
[[nodiscard]] std::vector<std::string> validate_query(const Query& query, std::size_t dim);

/// What one execute() call did — cache behaviour, fit reuse and cost.
struct QueryMetrics {
  bool cache_hit = false;    ///< served from the LRU result cache
  bool fit_reused = false;   ///< partition fit came from the fit memo (MR paths)
  /// Dominance tests charged by the skyline kernels. On the MapReduce paths
  /// (skyline/subspace) this is the pipeline's total work units, which also
  /// include the O(d)-per-point partition-assignment arithmetic.
  std::uint64_t dominance_tests = 0;
  std::int64_t wall_ns = 0;           ///< measured wall time of this execute()
  std::uint64_t dataset_version = 0;  ///< version the result was computed against
  std::size_t result_points = 0;      ///< points (or ranking entries) returned
};

/// One query's payload + metrics. Which fields are populated depends on the
/// query kind; unused ones stay empty.
struct QueryResult {
  /// skyline / subspace / k_skyband: the result points in canonical
  /// (ascending-id) order. representative: the picks in greedy pick order
  /// (aligned with `coverage`).
  data::PointSet points{1};
  std::vector<std::size_t> coverage;      ///< representative only
  std::size_t total_covered = 0;          ///< representative only
  std::vector<skyline::ScoredPoint> ranking;  ///< top_k_weighted only
  QueryMetrics metrics;
};

}  // namespace mrsky::service
