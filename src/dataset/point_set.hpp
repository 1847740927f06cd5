// PointSet: the d-dimensional multi-attribute dataset all skyline code
// operates on.
//
// Storage is a single row-major std::vector<double> (cache-friendly for the
// pairwise dominance scans that dominate skyline cost) plus a parallel vector
// of stable point ids, so points keep their identity across partitioning,
// local-skyline filtering and the global merge.
//
// Convention: every attribute is oriented so that SMALLER IS BETTER
// (the paper's Fig. 1 semantics). qos::ServiceCatalog performs the benefit→
// cost flip at ingest.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace mrsky::data {

/// Stable identity of a point within its originating dataset.
using PointId = std::uint32_t;

/// The one checked conversion for ids that arrive from outside (a CSV or
/// catalog id cell, a wire or script `delete`): the value must be a whole
/// number in [0, 2^32 - 1]. Anything else (negative, fractional, NaN, ±inf,
/// too large) is nullopt, never a truncating or undefined cast.
[[nodiscard]] std::optional<PointId> point_id_from(double v) noexcept;

/// Per-attribute minimum (`lo`) and maximum (`hi`) of a PointSet.
struct AttributeBounds {
  std::vector<double> lo;
  std::vector<double> hi;
};

class PointSet {
 public:
  /// An empty set of `dim`-dimensional points (dim >= 1).
  explicit PointSet(std::size_t dim);

  /// Takes ownership of row-major values; ids are assigned 0..n-1.
  PointSet(std::size_t dim, std::vector<double> values);

  /// Takes ownership of values and explicit ids (sizes must agree).
  PointSet(std::size_t dim, std::vector<double> values, std::vector<PointId> ids);

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ids_.empty(); }

  /// Read-only view of point i's coordinates.
  [[nodiscard]] std::span<const double> point(std::size_t i) const noexcept {
    return {values_.data() + i * dim_, dim_};
  }

  [[nodiscard]] double at(std::size_t i, std::size_t attr) const noexcept {
    return values_[i * dim_ + attr];
  }

  [[nodiscard]] PointId id(std::size_t i) const noexcept { return ids_[i]; }

  /// Copies point i's coordinates into dst with `stride` doubles between
  /// consecutive attributes (stride 1 = a plain contiguous copy). The strided
  /// form is the scatter used by skyline::TiledWindow to lay points out in
  /// attribute-major tiles.
  void copy_point_to(std::size_t i, double* dst, std::size_t stride = 1) const noexcept {
    const double* src = values_.data() + i * dim_;
    for (std::size_t a = 0; a < dim_; ++a) dst[a * stride] = src[a];
  }

  /// Appends a point; throws if coords.size() != dim().
  void push_back(std::span<const double> coords, PointId id);

  /// Appends a point with the next sequential id (= current size).
  void push_back(std::span<const double> coords);

  /// Bulk append of `ids.size()` rows from row-major `values` (one memcpy-class
  /// insert instead of a push_back per point — the ingest hot path for the CSV
  /// reader and block-store materialisation). Throws on size mismatch.
  void append_rows(std::span<const double> values, std::span<const PointId> ids);

  /// Bulk append with sequential ids starting at the current size.
  void append_rows(std::span<const double> values);

  void reserve(std::size_t n);
  void clear() noexcept;

  /// New PointSet holding rows [indices] of this one (ids preserved).
  [[nodiscard]] PointSet select(std::span<const std::size_t> indices) const;

  /// Per-attribute minimum and maximum over all points, in one pass. NaN
  /// never enters a bound, and between -0.0 and +0.0 the first seen wins.
  /// Throws if empty.
  [[nodiscard]] AttributeBounds attribute_bounds() const;

  /// Raw row-major storage (size() * dim() doubles).
  [[nodiscard]] std::span<const double> raw() const noexcept { return values_; }
  [[nodiscard]] std::span<const PointId> ids() const noexcept { return ids_; }

  /// True iff both sets have the same dim, ids and coordinates in order.
  [[nodiscard]] bool operator==(const PointSet& other) const noexcept = default;

 private:
  std::size_t dim_;
  std::vector<double> values_;
  std::vector<PointId> ids_;
};

/// Returns the ids of `ps` sorted ascending (canonical form for comparing
/// skyline results from different algorithms).
[[nodiscard]] std::vector<PointId> sorted_ids(const PointSet& ps);

}  // namespace mrsky::data
