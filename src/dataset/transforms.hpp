// Point-set combinators used by tests, examples and dataset preparation:
// concatenation (extending a registry), deterministic sampling (building a
// calibration subset the way the paper down-samples QWS), and perturbation
// (metamorphic testing of skyline invariances).
#pragma once

#include <cstdint>

#include "src/common/rng.hpp"
#include "src/dataset/point_set.hpp"

namespace mrsky::data {

/// All points of `a` followed by all points of `b` (ids preserved —
/// callers are responsible for id uniqueness if they need it). Dimensions
/// must match.
[[nodiscard]] PointSet concat(const PointSet& a, const PointSet& b);

/// `k` points sampled without replacement, in original order: a partial
/// Fisher-Yates shuffle under `rng` that stores only the positions it moved,
/// so the draws cost O(k) whatever ps.size() is. Requires k <= ps.size().
[[nodiscard]] PointSet sample_without_replacement(const PointSet& ps, std::size_t k,
                                                  common::Rng& rng);

/// Per-attribute positive affine map x -> scale[a] * x + shift[a]
/// (scale > 0). Rank-preserving per attribute, so the skyline ids are
/// invariant — the property the metamorphic tests exercise.
[[nodiscard]] PointSet affine_transform(const PointSet& ps, std::span<const double> scale,
                                        std::span<const double> shift);

/// Appends `copies` exact duplicates of random existing points (fresh ids
/// starting at max id + 1). Duplicate handling is a classic skyline edge
/// case; tests use this to harden algorithms against ties.
[[nodiscard]] PointSet with_duplicates(const PointSet& ps, std::size_t copies, common::Rng& rng);

/// Projection onto an attribute subset (ids preserved, order follows
/// `attributes`). Supports subspace skyline queries: users who only care
/// about, say, {ResponseTime, Availability} run the skyline over
/// project(ps, {0, 1}). Attribute indices must be in range; duplicates in
/// `attributes` are allowed (an attribute may be repeated).
[[nodiscard]] PointSet project(const PointSet& ps, std::span<const std::size_t> attributes);

}  // namespace mrsky::data
