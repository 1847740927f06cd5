#include "src/dataset/point_set.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/error.hpp"

namespace mrsky::data {

std::optional<PointId> point_id_from(double v) noexcept {
  constexpr double kMaxId = std::numeric_limits<PointId>::max();
  // The negated range test also rejects NaN.
  if (!(v >= 0.0 && v <= kMaxId) || v != std::floor(v)) return std::nullopt;
  return static_cast<PointId>(v);
}

PointSet::PointSet(std::size_t dim) : dim_(dim) {
  MRSKY_REQUIRE(dim >= 1, "points need at least one attribute");
}

PointSet::PointSet(std::size_t dim, std::vector<double> values) : PointSet(dim) {
  MRSKY_REQUIRE(values.size() % dim == 0, "value count must be a multiple of dim");
  values_ = std::move(values);
  const std::size_t n = values_.size() / dim;
  ids_.resize(n);
  for (std::size_t i = 0; i < n; ++i) ids_[i] = static_cast<PointId>(i);
}

PointSet::PointSet(std::size_t dim, std::vector<double> values, std::vector<PointId> ids)
    : PointSet(dim) {
  MRSKY_REQUIRE(values.size() == ids.size() * dim, "values/ids size mismatch");
  values_ = std::move(values);
  ids_ = std::move(ids);
}

void PointSet::push_back(std::span<const double> coords, PointId id) {
  MRSKY_REQUIRE(coords.size() == dim_, "coordinate count must equal dim");
  values_.insert(values_.end(), coords.begin(), coords.end());
  ids_.push_back(id);
}

void PointSet::push_back(std::span<const double> coords) {
  push_back(coords, static_cast<PointId>(size()));
}

void PointSet::append_rows(std::span<const double> values, std::span<const PointId> ids) {
  MRSKY_REQUIRE(values.size() == ids.size() * dim_, "values/ids size mismatch");
  values_.insert(values_.end(), values.begin(), values.end());
  ids_.insert(ids_.end(), ids.begin(), ids.end());
}

void PointSet::append_rows(std::span<const double> values) {
  MRSKY_REQUIRE(values.size() % dim_ == 0, "value count must be a multiple of dim");
  const std::size_t n = values.size() / dim_;
  PointId next = static_cast<PointId>(size());
  values_.insert(values_.end(), values.begin(), values.end());
  ids_.reserve(ids_.size() + n);
  for (std::size_t i = 0; i < n; ++i) ids_.push_back(next++);
}

void PointSet::reserve(std::size_t n) {
  values_.reserve(n * dim_);
  ids_.reserve(n);
}

void PointSet::clear() noexcept {
  values_.clear();
  ids_.clear();
}

PointSet PointSet::select(std::span<const std::size_t> indices) const {
  // Bulk path: size the output once and copy whole rows, instead of paying
  // push_back's per-row dim check and incremental growth. Every skyline
  // algorithm funnels its result construction through here.
  PointSet out(dim_);
  out.values_.resize(indices.size() * dim_);
  out.ids_.resize(indices.size());
  double* dst = out.values_.data();
  for (std::size_t k = 0; k < indices.size(); ++k) {
    const std::size_t i = indices[k];
    MRSKY_REQUIRE(i < size(), "select index out of range");
    std::copy_n(values_.data() + i * dim_, dim_, dst + k * dim_);
    out.ids_[k] = ids_[i];
  }
  return out;
}

AttributeBounds PointSet::attribute_bounds() const {
  MRSKY_REQUIRE(!empty(), "attribute_bounds of empty set");
  AttributeBounds b{std::vector<double>(dim_, std::numeric_limits<double>::infinity()),
                    std::vector<double>(dim_, -std::numeric_limits<double>::infinity())};
  // std::min/std::max keep their first argument unless the second compares
  // strictly better, which is what keeps NaN out and the first-seen zero in.
  for (std::size_t i = 0; i < size(); ++i) {
    for (std::size_t a = 0; a < dim_; ++a) {
      b.lo[a] = std::min(b.lo[a], at(i, a));
      b.hi[a] = std::max(b.hi[a], at(i, a));
    }
  }
  return b;
}

std::vector<PointId> sorted_ids(const PointSet& ps) {
  std::vector<PointId> ids(ps.ids().begin(), ps.ids().end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace mrsky::data
