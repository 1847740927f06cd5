#include "src/partition/angular.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <sstream>
#include <string>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/normalize.hpp"
#include "src/dataset/qws.hpp"
#include "src/geometry/hyperspherical.hpp"
#include "src/partition/stats.hpp"
#include "src/skyline/algorithms.hpp"

namespace mrsky::part {
namespace {

using data::PointSet;

PointSet unit_square_cloud(std::size_t n, std::uint64_t seed) {
  // Random cloud plus two axis points pinning the fitted angle range to the
  // full [0, π/2]: the equal-width policy splits the observed range.
  PointSet ps = data::generate(data::Distribution::kIndependent, n, 2, seed);
  ps.push_back(std::vector<double>{1.0, 0.0}, static_cast<data::PointId>(n));
  ps.push_back(std::vector<double>{0.0, 1.0}, static_cast<data::PointId>(n + 1));
  return ps;
}

TEST(AngularPartitioner, TwoDSectorsByAngle) {
  AngularPartitioner p(4);
  p.fit(unit_square_cloud(100, 1));
  // Sector width is (π/2)/4; points at known angles land in known sectors.
  const double eps = 0.01;
  auto at_angle = [&](double phi) {
    return std::vector<double>{std::cos(phi), std::sin(phi)};
  };
  const double w = std::numbers::pi / 8.0;
  EXPECT_EQ(p.assign(at_angle(0.5 * w)), 0u);
  EXPECT_EQ(p.assign(at_angle(1.5 * w)), 1u);
  EXPECT_EQ(p.assign(at_angle(2.5 * w)), 2u);
  EXPECT_EQ(p.assign(at_angle(3.5 * w)), 3u);
  EXPECT_EQ(p.assign(at_angle(4.0 * w - eps)), 3u);  // near the y-axis
}

TEST(AngularPartitioner, RadiusDoesNotAffectAssignment) {
  AngularPartitioner p(8);
  p.fit(unit_square_cloud(100, 2));
  const std::vector<double> near = {0.01, 0.005};
  const std::vector<double> far = {1.0, 0.5};
  EXPECT_EQ(p.assign(near), p.assign(far));
}

TEST(AngularPartitioner, BoundaryAngleGoesToUpperSector) {
  AngularPartitioner p(2);
  p.fit(unit_square_cloud(100, 3));
  // Two sectors split at π/4; the diagonal itself belongs to sector 1.
  EXPECT_EQ(p.assign(std::vector<double>{1.0, 1.0}), 1u);
  EXPECT_EQ(p.assign(std::vector<double>{1.0, 0.999}), 0u);
}

TEST(AngularPartitioner, OriginAssignsToSectorZero) {
  AngularPartitioner p(4);
  p.fit(unit_square_cloud(100, 4));
  EXPECT_EQ(p.assign(std::vector<double>{0.0, 0.0}), 0u);
}

TEST(AngularPartitioner, OneDimensionalCollapsesToSinglePartition) {
  AngularPartitioner p(8);
  p.fit(PointSet(1, {0.1, 0.5, 0.9}));
  EXPECT_EQ(p.num_partitions(), 1u);
  EXPECT_EQ(p.assign(std::vector<double>{0.7}), 0u);
}

TEST(AngularPartitioner, HighDimensionalAssignmentsInRange) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 2000, 10, 5);
  AngularPartitioner p(16);
  p.fit(ps);
  EXPECT_EQ(p.num_partitions(), 16u);
  for (std::size_t i = 0; i < ps.size(); ++i) EXPECT_LT(p.assign(ps.point(i)), 16u);
}

TEST(AngularPartitioner, AssignBeforeFitThrows) {
  AngularPartitioner p(4);
  const std::vector<double> point = {0.5, 0.5};
  EXPECT_THROW((void)p.assign(point), mrsky::RuntimeError);
}

TEST(AngularPartitioner, DimensionMismatchThrows) {
  AngularPartitioner p(4);
  p.fit(unit_square_cloud(10, 6));
  EXPECT_THROW((void)p.assign(std::vector<double>{0.5, 0.5, 0.5}), mrsky::InvalidArgument);
}

TEST(AngularPartitioner, NegativeCoordinatesRejected) {
  AngularPartitioner p(4);
  p.fit(unit_square_cloud(10, 7));
  EXPECT_THROW((void)p.assign(std::vector<double>{-0.1, 0.5}), mrsky::InvalidArgument);
}

TEST(AngularPartitioner, EqualWidthBoundariesAreUniform) {
  AngularPartitioner p(4);
  p.fit(unit_square_cloud(100, 8));
  const auto& bounds = p.boundaries(0);
  ASSERT_EQ(bounds.size(), 3u);
  const double w = std::numbers::pi / 8.0;
  EXPECT_NEAR(bounds[0], w, 1e-12);
  EXPECT_NEAR(bounds[1], 2 * w, 1e-12);
  EXPECT_NEAR(bounds[2], 3 * w, 1e-12);
}

TEST(AngularPartitioner, EquiDepthBalancesSkewedData) {
  // Skewed cloud hugging the x-axis: equal-width sectors are lopsided,
  // equi-depth sectors stay balanced.
  data::PointSet skewed(2);
  common::Rng rng(11);
  for (int i = 0; i < 4000; ++i) {
    const double x = rng.uniform(0.1, 1.0);
    const double y = rng.uniform(0.0, 0.1);  // tiny angles only
    skewed.push_back(std::vector<double>{x, y});
  }
  AngularPartitioner equal_width(4, AngularPolicy::kEqualWidth);
  AngularPartitioner equi_depth(4, AngularPolicy::kEquiDepth);
  equal_width.fit(skewed);
  equi_depth.fit(skewed);
  const auto rep_w = analyze_partitioning(equal_width, skewed);
  const auto rep_d = analyze_partitioning(equi_depth, skewed);
  EXPECT_GT(rep_w.balance_cv, rep_d.balance_cv);
  EXPECT_LT(rep_d.balance_cv, 0.2);
}

TEST(AngularPartitioner, EquiDepthStillCoversAllPartitions) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 4000, 3, 13);
  AngularPartitioner p(6, AngularPolicy::kEquiDepth);
  p.fit(ps);
  const auto report = analyze_partitioning(p, ps);
  EXPECT_EQ(report.non_empty, 6u);
}

TEST(AngularPartitioner, EverySectorTouchesTheSkylineRegion) {
  // The paper's key claim about angular partitioning: each sector contains
  // both near-origin (good) and far (poor) points — check that each sector's
  // points span a wide radius range on QWS-like data.
  data::QwsLikeGenerator gen(4, 17);
  const PointSet ps = data::normalize_min_max(gen.generate_oriented(4000));
  AngularPartitioner p(8);
  p.fit(ps);
  std::vector<double> min_r(8, 1e18);
  std::vector<double> max_r(8, 0.0);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const auto pt = ps.point(i);
    double r = 0.0;
    for (double v : pt) r += v * v;
    r = std::sqrt(r);
    const std::size_t s = p.assign(pt);
    min_r[s] = std::min(min_r[s], r);
    max_r[s] = std::max(max_r[s], r);
  }
  for (std::size_t s = 0; s < 8; ++s) {
    if (max_r[s] == 0.0) continue;  // empty sector
    EXPECT_GT(max_r[s] - min_r[s], 0.3) << "sector " << s << " spans too little radius";
  }
}

TEST(AngularPartitioner, NamesDistinguishPolicies) {
  EXPECT_EQ(AngularPartitioner(2, AngularPolicy::kEqualWidth).name(), "angular");
  EXPECT_EQ(AngularPartitioner(2, AngularPolicy::kEquiDepth).name(), "angular-equidepth");
}

TEST(AngularPartitioner, BoundariesIndexOutOfRangeThrows) {
  AngularPartitioner p(4);
  p.fit(unit_square_cloud(10, 19));
  EXPECT_THROW((void)p.boundaries(5), mrsky::InvalidArgument);
}

// ---- AngularSectorLookup: assign's tangent-space lookup against atan2 ----
//
// The oracle is the sector lookup by angle, rebuilt from the public API:
// angles_of, upper_bound over boundaries(k) clamped to the shape, then the
// row-major index over shape(). assign must agree on every point, bit for
// bit, including points placed a few ulps from every boundary, where only
// its atan2 fallback can decide.

std::size_t atan2_oracle(const AngularPartitioner& p, std::span<const double> point) {
  std::vector<double> phi;
  geo::angles_of(point, phi);
  const auto& shape = p.shape();
  std::size_t index = 0;
  for (std::size_t k = 0; k < shape.size(); ++k) {
    const auto& bounds = p.boundaries(k);
    const auto cell = static_cast<std::size_t>(
        std::upper_bound(bounds.begin(), bounds.end(), phi[k]) - bounds.begin());
    index = index * shape[k] + std::min(cell, shape[k] - 1);
  }
  return index;
}

constexpr std::size_t kLookupDims[] = {2, 4, 10};
constexpr std::size_t kLookupPartitions[] = {2, 6, 16, 64};
constexpr AngularPolicy kLookupPolicies[] = {AngularPolicy::kEqualWidth,
                                             AngularPolicy::kEquiDepth};

struct NamedSet {
  std::string name;
  PointSet points;
};

/// QWS-like, independent, a quarter-grid (exact ties and zeros) and
/// ldexp-scaled rows whose coordinate ratios reach 2^-59.
std::vector<NamedSet> lookup_datasets(std::size_t dim, std::uint64_t seed) {
  constexpr std::size_t kRows = 1500;
  std::vector<NamedSet> sets;
  data::QwsLikeGenerator qws(dim, seed);
  sets.push_back({"qws", data::normalize_min_max(qws.generate_oriented(kRows))});
  sets.push_back(
      {"independent", data::generate(data::Distribution::kIndependent, kRows, dim, seed)});
  common::Rng rng(seed);
  PointSet grid(dim);
  PointSet scaled(dim);
  std::vector<double> row(dim);
  for (std::size_t i = 0; i < kRows; ++i) {
    for (auto& v : row) v = 0.25 * static_cast<double>(rng.uniform_index(5));
    grid.push_back(row);
    for (auto& v : row) {
      v = std::ldexp(rng.uniform(0.5, 1.0), -static_cast<int>(rng.uniform_index(60)));
    }
    scaled.push_back(row);
  }
  sets.push_back({"quarter-grid", std::move(grid)});
  sets.push_back({"ldexp-scaled", std::move(scaled)});
  return sets;
}

/// For every boundary β of every split angle k: points whose angle k sits
/// within ±3 ulps of β (v[k] = cos β', the tail carrying sin β', clamped at
/// 0), with a zero and a non-zero prefix, the tail in one coordinate or
/// spread over all, at three radii.
PointSet near_boundary_points(const AngularPartitioner& p, std::size_t dim) {
  PointSet out(dim);
  const auto& shape = p.shape();
  std::vector<double> row(dim);
  for (std::size_t k = 0; k < shape.size(); ++k) {
    if (shape[k] == 1) continue;
    for (const double beta : p.boundaries(k)) {
      double b = beta;
      for (int step = 0; step < 3; ++step) b = std::nextafter(b, -1.0);
      for (int ulp = -3; ulp <= 3; ++ulp, b = std::nextafter(b, 4.0)) {
        const double x = std::max(std::cos(b), 0.0);
        const double s = std::max(std::sin(b), 0.0);
        const std::size_t tail_len = dim - 1 - k;
        for (const bool prefix : {false, true}) {
          for (const bool spread : {false, true}) {
            for (const double radius : {1.0, 3.7, 0x1p-30}) {
              std::fill(row.begin(), row.end(), 0.0);
              for (std::size_t j = 0; prefix && j < k; ++j) {
                row[j] = radius * (0.3 + 0.1 * static_cast<double>(j));
              }
              row[k] = radius * x;
              if (spread) {
                const double share = s / std::sqrt(static_cast<double>(tail_len));
                for (std::size_t j = k + 1; j < dim; ++j) row[j] = radius * share;
              } else {
                row[k + 1] = radius * s;
              }
              out.push_back(row);
            }
          }
        }
      }
    }
  }
  return out;
}

/// The origin, every axis point, negative zeros and a +inf in every position.
PointSet special_points(std::size_t dim) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  PointSet out(dim);
  std::vector<double> row(dim, 0.0);
  out.push_back(row);
  std::fill(row.begin(), row.end(), -0.0);
  out.push_back(row);
  for (std::size_t j = 0; j < dim; ++j) {
    for (const double fill : {0.0, -0.0, 0.5}) {
      std::fill(row.begin(), row.end(), fill);
      row[j] = 1.0;
      out.push_back(row);
      row[j] = kInf;
      out.push_back(row);
      row[j] = -0.0;
      out.push_back(row);
    }
  }
  std::fill(row.begin(), row.end(), kInf);
  out.push_back(row);
  return out;
}

/// Counts the rows of `points` on which assign and the oracle disagree and
/// describes the first.
std::size_t count_mismatches(const AngularPartitioner& p, const PointSet& points,
                             std::string& first) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::size_t got = p.assign(points.point(i));
    const std::size_t want = atan2_oracle(p, points.point(i));
    if (got == want) continue;
    if (mismatches++ == 0) {
      std::ostringstream os;
      os.precision(17);
      os << "row " << i << " (";
      for (const double v : points.point(i)) os << v << ' ';
      os << ") assign " << got << ", atan2 oracle " << want;
      first = os.str();
    }
  }
  return mismatches;
}

/// Fits every policy x dimension x partition count on each dataset in turn
/// and checks `probe(partitioner, dim, datasets)` row for row.
template <typename Probe>
void for_each_lookup_fit(Probe probe) {
  for (const AngularPolicy policy : kLookupPolicies) {
    for (const std::size_t dim : kLookupDims) {
      const auto datasets = lookup_datasets(dim, 100 + dim);
      for (const std::size_t partitions : kLookupPartitions) {
        for (const auto& fitted : datasets) {
          AngularPartitioner p(partitions, policy);
          p.fit(fitted.points);
          SCOPED_TRACE(p.name() + " d=" + std::to_string(dim) + " p=" +
                       std::to_string(partitions) + " fit on " + fitted.name);
          probe(p, dim, datasets);
        }
      }
    }
  }
}

TEST(AngularSectorLookup, DatasetRowsMatchAtan2Oracle) {
  for_each_lookup_fit([](const AngularPartitioner& p, std::size_t,
                         const std::vector<NamedSet>& datasets) {
    for (const auto& probed : datasets) {
      std::string first;
      EXPECT_EQ(count_mismatches(p, probed.points, first), 0u) << probed.name << ": " << first;
    }
  });
}

TEST(AngularSectorLookup, PointsWithinThreeUlpsOfEveryBoundaryMatchAtan2Oracle) {
  for_each_lookup_fit([](const AngularPartitioner& p, std::size_t dim,
                         const std::vector<NamedSet>&) {
    const PointSet near = near_boundary_points(p, dim);
    ASSERT_GT(near.size(), 0u);
    std::string first;
    EXPECT_EQ(count_mismatches(p, near, first), 0u) << first;
  });
}

TEST(AngularSectorLookup, OriginAxesZerosAndInfinityMatchAtan2Oracle) {
  for_each_lookup_fit([](const AngularPartitioner& p, std::size_t dim,
                         const std::vector<NamedSet>&) {
    std::string first;
    EXPECT_EQ(count_mismatches(p, special_points(dim), first), 0u) << first;
  });
}

TEST(AngularSectorLookup, EquiDepthBoundariesAreQuantilesOfAnglesOf) {
  for (const std::size_t dim : kLookupDims) {
    for (const auto& fitted : lookup_datasets(dim, 200 + dim)) {
      const PointSet& ps = fitted.points;
      std::vector<std::vector<double>> samples(dim - 1);
      std::vector<double> phi;
      for (std::size_t i = 0; i < ps.size(); ++i) {
        geo::angles_of(ps.point(i), phi);
        for (std::size_t k = 0; k + 1 < dim; ++k) samples[k].push_back(phi[k]);
      }
      for (auto& s : samples) std::sort(s.begin(), s.end());
      for (const std::size_t partitions : kLookupPartitions) {
        AngularPartitioner p(partitions, AngularPolicy::kEquiDepth);
        p.fit(ps);
        SCOPED_TRACE(fitted.name + " d=" + std::to_string(dim) + " p=" +
                     std::to_string(partitions));
        for (std::size_t k = 0; k + 1 < dim; ++k) {
          const std::size_t cells = p.shape()[k];
          const auto& bounds = p.boundaries(k);
          ASSERT_EQ(bounds.size(), cells - 1);
          for (std::size_t b = 1; b < cells; ++b) {
            const double frac = static_cast<double>(b) / static_cast<double>(cells);
            const auto pos =
                static_cast<std::size_t>(frac * static_cast<double>(ps.size() - 1));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(bounds[b - 1]),
                      std::bit_cast<std::uint64_t>(samples[k][pos]))
                << "angle " << k << " boundary " << b;
          }
        }
      }
    }
  }
}

TEST(AngularSectorLookup, NanOrNegativeCoordinateThrows) {
  for (const std::size_t dim : kLookupDims) {
    AngularPartitioner p(16);
    p.fit(data::generate(data::Distribution::kIndependent, 500, dim, 7));
    for (std::size_t j = 0; j < dim; ++j) {
      std::vector<double> row(dim, 0.5);
      row[j] = std::numeric_limits<double>::quiet_NaN();
      EXPECT_THROW((void)p.assign(row), mrsky::InvalidArgument) << "NaN at " << j;
      row[j] = -1e-300;
      EXPECT_THROW((void)p.assign(row), mrsky::InvalidArgument) << "negative at " << j;
    }
  }
}

}  // namespace
}  // namespace mrsky::part
