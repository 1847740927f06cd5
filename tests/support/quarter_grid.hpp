// Tie-heavy test data: every coordinate rounded to the quarter grid
// {0, 0.25, 0.5, 0.75, 1}, so rows repeat exactly (duplicates of skyline
// points) and weighted scores of distinct rows tie.
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

}  // namespace mrsky::test
