// Tie-heavy test data: every coordinate rounded to the quarter grid
// {0, 0.25, 0.5, 0.75, 1}, so rows repeat exactly (duplicates of skyline
// points) and weighted scores of distinct rows tie; and zeros stored as −0.0,
// which ties +0.0 by value but not by bits.
#pragma once

#include <cmath>
#include <utility>
#include <vector>

#include "src/dataset/point_set.hpp"

namespace mrsky::test {

/// `ps` with every coordinate rounded to the nearest quarter; ids kept.
inline data::PointSet snap_to_quarter_grid(const data::PointSet& ps) {
  std::vector<double> values(ps.raw().begin(), ps.raw().end());
  for (double& v : values) v = std::round(v * 4.0) / 4.0;
  return data::PointSet(ps.dim(), std::move(values),
                        std::vector<data::PointId>(ps.ids().begin(), ps.ids().end()));
}

/// `ps` with the zero coordinates of every third row (rows 0, 3, 6, ...)
/// stored as −0.0; ids kept.
inline data::PointSet with_negative_zeros(const data::PointSet& ps) {
  std::vector<double> values(ps.raw().begin(), ps.raw().end());
  for (std::size_t i = 0; i < ps.size(); i += 3) {
    for (std::size_t a = 0; a < ps.dim(); ++a) {
      double& v = values[i * ps.dim() + a];
      if (v == 0.0) v = -0.0;
    }
  }
  return data::PointSet(ps.dim(), std::move(values),
                        std::vector<data::PointId>(ps.ids().begin(), ps.ids().end()));
}

}  // namespace mrsky::test
