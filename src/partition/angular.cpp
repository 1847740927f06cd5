#include "src/partition/angular.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "src/common/error.hpp"
#include "src/common/stats.hpp"
#include "src/geometry/grid_shape.hpp"
#include "src/geometry/hyperspherical.hpp"

namespace mrsky::part {

namespace {

constexpr double kHalfPi = std::numbers::pi / 2.0;
constexpr double kInf = std::numeric_limits<double>::infinity();
/// δ: half-width of the angle bracket around each boundary inside which
/// assign falls back to atan2. 2^-40 rad ≈ 9.1e-13 is ~4,000 ulps of π/2,
/// while the ratio's and tan's rounding move the angle by under 1e-15 rad.
constexpr double kBracketHalfWidth = 0x1p-40;

}  // namespace

AngularPartitioner::AngularPartitioner(std::size_t num_partitions, AngularPolicy policy)
    : requested_partitions_(num_partitions), effective_partitions_(num_partitions),
      policy_(policy) {
  MRSKY_REQUIRE(num_partitions >= 1, "need at least one partition");
}

void AngularPartitioner::fit(const data::PointSet& ps) {
  MRSKY_REQUIRE(!ps.empty(), "cannot fit a partitioner on an empty dataset");
  const std::size_t num_angles = ps.dim() - 1;
  if (num_angles == 0) {
    // 1-D data: no angular coordinates exist; a single sector is the only
    // well-defined partitioning.
    shape_.clear();
    boundaries_.clear();
    brackets_.clear();
    effective_partitions_ = 1;
    fitted_ = true;
    return;
  }

  // Per-angle summary statistics of the fitted data, used twice below:
  // (1) split factors go to the angles with the largest spread, (2) the
  // equal-width policy splits the observed [min, max] range. The same pass
  // collects the equi-depth policy's quantile samples.
  const bool equi_depth = policy_ == AngularPolicy::kEquiDepth;
  std::vector<double> lo(num_angles, kHalfPi);
  std::vector<double> hi(num_angles, 0.0);
  std::vector<common::RunningStats> spread(num_angles);
  std::vector<std::vector<double>> samples(equi_depth ? num_angles : 0);
  for (auto& s : samples) s.reserve(ps.size());
  {
    std::vector<double> phi;
    for (std::size_t i = 0; i < ps.size(); ++i) {
      geo::angles_of(ps.point(i), phi);
      for (std::size_t k = 0; k < num_angles; ++k) {
        lo[k] = std::min(lo[k], phi[k]);
        hi[k] = std::max(hi[k], phi[k]);
        spread[k].add(phi[k]);
      }
      for (std::size_t k = 0; k < samples.size(); ++k) samples[k].push_back(phi[k]);
    }
  }

  // Allocate the factorised partition count across angles largest-spread
  // first. At high dimension the leading angles of Eq. (1) concentrate
  // sharply (their tangent carries a sum of d-k squares), so splitting them
  // produces one sector holding nearly all points; the trailing angles are
  // the ones that actually spread the data. balanced_grid_shape returns its
  // factors largest-first, matching the sorted spread order.
  const auto factors = geo::balanced_grid_shape(requested_partitions_, num_angles);
  std::vector<std::size_t> order(num_angles);
  for (std::size_t k = 0; k < num_angles; ++k) order[k] = k;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return spread[a].stddev() > spread[b].stddev(); });
  shape_.assign(num_angles, 1);
  for (std::size_t rank = 0; rank < num_angles; ++rank) shape_[order[rank]] = factors[rank];

  effective_partitions_ = requested_partitions_;
  boundaries_.assign(num_angles, {});

  if (!equi_depth) {
    // Like MR-Grid's Vmax/Np rule, the split range follows the fitted data:
    // equal-width cells over the observed [min, max] of each angle (§III-C
    // "we modify the grid partitioning over the n-1 subspaces"). Splitting
    // the full [0, π/2] instead would leave most sectors empty whenever the
    // data's directions concentrate, which real QoS data's do.
    for (std::size_t k = 0; k < num_angles; ++k) {
      const double width = (hi[k] - lo[k]) / static_cast<double>(shape_[k]);
      for (std::size_t b = 1; b < shape_[k]; ++b) {
        boundaries_[k].push_back(lo[k] + width * static_cast<double>(b));
      }
    }
  } else {
    // Equi-depth: boundaries at marginal sample quantiles of each angle.
    for (std::size_t k = 0; k < num_angles; ++k) {
      std::sort(samples[k].begin(), samples[k].end());
      for (std::size_t b = 1; b < shape_[k]; ++b) {
        const double frac = static_cast<double>(b) / static_cast<double>(shape_[k]);
        const auto pos = static_cast<std::size_t>(
            frac * static_cast<double>(samples[k].size() - 1));
        boundaries_[k].push_back(samples[k][pos]);
      }
    }
  }

  // Tangent brackets for assign (see angular.hpp). Boundaries ascend, so
  // the brackets do too.
  brackets_.assign(num_angles, {});
  for (std::size_t k = 0; k < num_angles; ++k) {
    for (const double beta : boundaries_[k]) {
      brackets_[k].push_back(
          {beta - kBracketHalfWidth <= 0.0 ? -kInf : std::tan(beta - kBracketHalfWidth),
           beta + kBracketHalfWidth >= kHalfPi ? kInf : std::tan(beta + kBracketHalfWidth)});
    }
  }
  fitted_ = true;
}

std::size_t AngularPartitioner::assign(std::span<const double> point) const {
  if (!fitted_) MRSKY_FAIL("AngularPartitioner::assign before fit");
  const std::size_t num_angles = shape_.size();
  if (num_angles == 0) return 0;
  MRSKY_REQUIRE(point.size() == num_angles + 1, "point dimension mismatch");
  geo::require_transform_domain(point);

  // The cell's row-major index over shape_ (geo::linear_index), accumulated
  // from the last angle back, as the suffix sums arrive.
  std::size_t index = 0;
  std::size_t stride = 1;
  geo::for_each_suffix_square_sum(point, [&](std::size_t k, double tail) {
    const std::size_t angle = k - 1;
    if (shape_[angle] == 1) return;  // single sector: cell 0
    index += stride * cell_of(angle, std::sqrt(tail), point[angle]);
    stride *= shape_[angle];
  });
  return index;
}

std::size_t AngularPartitioner::cell_of(std::size_t k, double s, double x) const {
  const auto& brackets = brackets_[k];
  // x == 0 (of either sign) leaves atan2's quadrant conventions to atan2.
  if (x != 0.0) {
    const double ratio = s / x;
    std::size_t cell = 0;
    for (; cell < brackets.size(); ++cell) {
      if (ratio > brackets[cell].hi) continue;     // boundary < φ
      if (ratio < brackets[cell].lo) return cell;  // it and every later one > φ
      break;                                       // φ within δ of it, or NaN
    }
    if (cell == brackets.size()) return cell;
  }
  const double phi = std::atan2(s, x);
  const auto& bounds = boundaries_[k];
  // Boundary value itself belongs to the upper sector (half-open cells).
  const auto cell = static_cast<std::size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), phi) - bounds.begin());
  // upper_bound on boundaries yields at most shape_[k]-1... plus clamping
  // guards against angles that exceed the last boundary exactly at π/2.
  return std::min(cell, shape_[k] - 1);
}

const std::vector<double>& AngularPartitioner::boundaries(std::size_t angle_index) const {
  MRSKY_REQUIRE(angle_index < boundaries_.size(), "angle index out of range");
  return boundaries_[angle_index];
}

}  // namespace mrsky::part
