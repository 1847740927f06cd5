#include "src/dataset/normalize.hpp"

#include <utility>

#include "src/common/error.hpp"

namespace mrsky::data {

PointSet NormalizationMap::apply(const PointSet& ps) const {
  MRSKY_REQUIRE(ps.dim() == dim(), "normalisation map dimension mismatch");
  std::vector<double> values;
  values.reserve(ps.size() * ps.dim());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    for (std::size_t a = 0; a < ps.dim(); ++a) {
      const double range = hi[a] - lo[a];
      values.push_back(range == 0.0 ? 0.0 : (ps.at(i, a) - lo[a]) / range);
    }
  }
  return PointSet(ps.dim(), std::move(values),
                  std::vector<PointId>(ps.ids().begin(), ps.ids().end()));
}

PointSet NormalizationMap::invert(const PointSet& ps) const {
  MRSKY_REQUIRE(ps.dim() == dim(), "normalisation map dimension mismatch");
  std::vector<double> values;
  values.reserve(ps.size() * ps.dim());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    for (std::size_t a = 0; a < ps.dim(); ++a) {
      values.push_back(lo[a] + ps.at(i, a) * (hi[a] - lo[a]));
    }
  }
  return PointSet(ps.dim(), std::move(values),
                  std::vector<PointId>(ps.ids().begin(), ps.ids().end()));
}

NormalizationMap fit_min_max(const PointSet& ps) {
  auto [lo, hi] = ps.attribute_bounds();
  return NormalizationMap{std::move(lo), std::move(hi)};
}

PointSet normalize_min_max(const PointSet& ps) { return fit_min_max(ps).apply(ps); }

}  // namespace mrsky::data
