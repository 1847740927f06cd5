#include "src/partition/grid.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/geometry/grid_shape.hpp"

namespace mrsky::part {

GridPartitioner::GridPartitioner(std::size_t num_partitions) : num_partitions_(num_partitions) {
  MRSKY_REQUIRE(num_partitions >= 1, "need at least one partition");
}

std::vector<std::size_t> GridPartitioner::cell_of(std::span<const double> point) const {
  std::vector<std::size_t> cell(shape_.size());
  for (std::size_t a = 0; a < shape_.size(); ++a) {
    if (width_[a] <= 0.0 || shape_[a] == 1) {
      cell[a] = 0;
      continue;
    }
    const double offset = (point[a] - lo_[a]) / width_[a];
    const auto k = static_cast<std::ptrdiff_t>(std::floor(offset));
    cell[a] = static_cast<std::size_t>(
        std::clamp<std::ptrdiff_t>(k, 0, static_cast<std::ptrdiff_t>(shape_[a]) - 1));
  }
  return cell;
}

void GridPartitioner::fit(const data::PointSet& ps) {
  MRSKY_REQUIRE(!ps.empty(), "cannot fit a partitioner on an empty dataset");
  shape_ = geo::balanced_grid_shape(num_partitions_, ps.dim());
  auto [lo, hi] = ps.attribute_bounds();
  lo_ = std::move(lo);
  width_.resize(ps.dim());
  for (std::size_t a = 0; a < ps.dim(); ++a) {
    width_[a] = (hi[a] - lo_[a]) / static_cast<double>(shape_[a]);
  }
  fitted_ = true;

  // Dominance pruning over non-empty cells (paper §III-B). The cell count is
  // the partition count (tens), so the pairwise scan is trivial.
  std::vector<bool> occupied(num_partitions_, false);
  for (std::size_t i = 0; i < ps.size(); ++i) occupied[assign(ps.point(i))] = true;

  std::vector<std::vector<std::size_t>> cells(num_partitions_);
  for (std::size_t p = 0; p < num_partitions_; ++p) cells[p] = geo::unlinear_index(p, shape_);

  prunable_.clear();
  for (std::size_t victim = 0; victim < num_partitions_; ++victim) {
    if (!occupied[victim]) continue;  // empty cells need no pruning
    for (std::size_t killer = 0; killer < num_partitions_; ++killer) {
      if (killer == victim || !occupied[killer]) continue;
      bool strictly_below = true;
      for (std::size_t a = 0; a < shape_.size(); ++a) {
        if (cells[killer][a] + 1 > cells[victim][a]) {
          strictly_below = false;
          break;
        }
      }
      if (strictly_below) {
        prunable_.push_back(victim);
        break;
      }
    }
  }
}

std::size_t GridPartitioner::assign(std::span<const double> point) const {
  if (!fitted_) MRSKY_FAIL("GridPartitioner::assign before fit");
  MRSKY_REQUIRE(point.size() == shape_.size(), "point dimension mismatch");
  return geo::linear_index(cell_of(point), shape_);
}

}  // namespace mrsky::part
