#include "src/partition/dimensional.hpp"

#include <algorithm>
#include <cmath>

#include "src/common/error.hpp"

namespace mrsky::part {

DimensionalPartitioner::DimensionalPartitioner(std::size_t num_partitions, std::size_t split_dim)
    : num_partitions_(num_partitions), split_dim_(split_dim) {
  MRSKY_REQUIRE(num_partitions >= 1, "need at least one partition");
}

void DimensionalPartitioner::fit(const data::PointSet& ps) {
  MRSKY_REQUIRE(split_dim_ < ps.dim(), "split dimension out of range");
  MRSKY_REQUIRE(!ps.empty(), "cannot fit a partitioner on an empty dataset");
  const data::AttributeBounds bounds = ps.attribute_bounds();
  lo_ = bounds.lo[split_dim_];
  const double hi = bounds.hi[split_dim_];
  width_ = (hi - lo_) / static_cast<double>(num_partitions_);
  fitted_ = true;
}

std::size_t DimensionalPartitioner::assign(std::span<const double> point) const {
  if (!fitted_) MRSKY_FAIL("DimensionalPartitioner::assign before fit");
  MRSKY_REQUIRE(split_dim_ < point.size(), "point dimension too small for split dim");
  if (width_ <= 0.0) return 0;  // constant attribute: everything in slab 0
  const double offset = (point[split_dim_] - lo_) / width_;
  const auto slab = static_cast<std::ptrdiff_t>(std::floor(offset));
  return static_cast<std::size_t>(
      std::clamp<std::ptrdiff_t>(slab, 0, static_cast<std::ptrdiff_t>(num_partitions_) - 1));
}

}  // namespace mrsky::part
