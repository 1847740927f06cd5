#include "src/dataset/point_set.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"

namespace mrsky::data {
namespace {

TEST(PointSet, EmptyConstruction) {
  PointSet ps(3);
  EXPECT_EQ(ps.dim(), 3u);
  EXPECT_EQ(ps.size(), 0u);
  EXPECT_TRUE(ps.empty());
}

TEST(PointSet, RejectsZeroDimension) {
  EXPECT_THROW(PointSet(0), InvalidArgument);
}

TEST(PointSet, FlatConstructorAssignsSequentialIds) {
  PointSet ps(2, {1.0, 2.0, 3.0, 4.0});
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps.id(0), 0u);
  EXPECT_EQ(ps.id(1), 1u);
  EXPECT_DOUBLE_EQ(ps.at(1, 0), 3.0);
}

TEST(PointSet, FlatConstructorRejectsRaggedValues) {
  EXPECT_THROW(PointSet(2, {1.0, 2.0, 3.0}), InvalidArgument);
}

TEST(PointSet, ExplicitIdsPreserved) {
  PointSet ps(1, {5.0, 6.0}, {10u, 20u});
  EXPECT_EQ(ps.id(0), 10u);
  EXPECT_EQ(ps.id(1), 20u);
}

TEST(PointSet, ExplicitIdsSizeMismatchThrows) {
  EXPECT_THROW(PointSet(1, {5.0, 6.0}, {10u}), InvalidArgument);
}

TEST(PointSet, PushBackGrowsAndViews) {
  PointSet ps(3);
  const std::vector<double> p = {1.0, 2.0, 3.0};
  ps.push_back(p);
  ASSERT_EQ(ps.size(), 1u);
  const auto view = ps.point(0);
  EXPECT_DOUBLE_EQ(view[0], 1.0);
  EXPECT_DOUBLE_EQ(view[2], 3.0);
}

TEST(PointSet, PushBackWrongWidthThrows) {
  PointSet ps(3);
  const std::vector<double> p = {1.0, 2.0};
  EXPECT_THROW(ps.push_back(p), InvalidArgument);
}

TEST(PointSet, SequentialIdMatchesSize) {
  PointSet ps(1);
  const std::vector<double> p = {0.0};
  ps.push_back(p);
  ps.push_back(p);
  EXPECT_EQ(ps.id(0), 0u);
  EXPECT_EQ(ps.id(1), 1u);
}

TEST(PointSet, SelectPreservesIdsAndCoords) {
  PointSet ps(2, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0}, {7u, 8u, 9u});
  const std::vector<std::size_t> idx = {2, 0};
  const PointSet sub = ps.select(idx);
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.id(0), 9u);
  EXPECT_DOUBLE_EQ(sub.at(0, 1), 6.0);
  EXPECT_EQ(sub.id(1), 7u);
}

TEST(PointSet, SelectOutOfRangeThrows) {
  PointSet ps(1, {1.0});
  const std::vector<std::size_t> idx = {5};
  EXPECT_THROW(ps.select(idx), InvalidArgument);
}

TEST(PointSet, AttributeMinMax) {
  PointSet ps(2, {1.0, 9.0, 3.0, 2.0, -1.0, 5.0});
  const auto [mins, maxs] = ps.attribute_bounds();
  EXPECT_DOUBLE_EQ(mins[0], -1.0);
  EXPECT_DOUBLE_EQ(mins[1], 2.0);
  EXPECT_DOUBLE_EQ(maxs[0], 3.0);
  EXPECT_DOUBLE_EQ(maxs[1], 9.0);
}

// The one-pass bounds are bit for bit what two separate std::min and
// std::max passes give: NaN never enters a bound, ±inf do, and between -0.0
// and +0.0 the first seen wins, in either order.
TEST(PointSet, AttributeBoundsMatchTwoSeparatePassesBitwise) {
  constexpr double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr double inf = std::numeric_limits<double>::infinity();
  const auto two_passes = [](const PointSet& ps) {
    std::vector<double> mins(ps.dim(), std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < ps.size(); ++i) {
      for (std::size_t a = 0; a < ps.dim(); ++a) mins[a] = std::min(mins[a], ps.at(i, a));
    }
    std::vector<double> maxs(ps.dim(), -std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < ps.size(); ++i) {
      for (std::size_t a = 0; a < ps.dim(); ++a) maxs[a] = std::max(maxs[a], ps.at(i, a));
    }
    return AttributeBounds{mins, maxs};
  };
  const auto bits = [](const std::vector<double>& v) {
    std::vector<std::uint64_t> out;
    for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
    return out;
  };
  std::vector<double> mixed;
  common::Rng rng(44);
  const double specials[] = {nan, inf, -inf, 0.0, -0.0, 1.5, -2.5};
  for (int i = 0; i < 400; ++i) mixed.push_back(specials[rng.uniform_index(7)]);
  const std::vector<PointSet> sets = {
      PointSet(3, {nan, 1.0, -0.0, 2.0, nan, 0.0, -1.0, 3.0, nan}),
      PointSet(2, {0.0, -0.0, -0.0, 0.0}),  // +0.0 first, then -0.0 first
      PointSet(2, {inf, -inf, -inf, inf, 1.0, nan}),
      PointSet(3, {-0.0, nan, 5.0}),  // one row
      PointSet(1, {nan, nan}),        // nothing but NaN: the bounds stay ±inf
      PointSet(4, mixed),
  };
  for (std::size_t k = 0; k < sets.size(); ++k) {
    const AttributeBounds got = sets[k].attribute_bounds();
    const AttributeBounds want = two_passes(sets[k]);
    EXPECT_EQ(bits(got.lo), bits(want.lo)) << "set " << k;
    EXPECT_EQ(bits(got.hi), bits(want.hi)) << "set " << k;
  }
  const AttributeBounds zeros = sets[1].attribute_bounds();
  EXPECT_FALSE(std::signbit(zeros.lo[0]));
  EXPECT_FALSE(std::signbit(zeros.hi[0]));
  EXPECT_TRUE(std::signbit(zeros.lo[1]));
  EXPECT_TRUE(std::signbit(zeros.hi[1]));
  EXPECT_EQ(sets[4].attribute_bounds().lo[0], inf);
}

TEST(PointSet, AttributeMinMaxEmptyThrows) {
  PointSet ps(2);
  EXPECT_THROW((void)ps.attribute_bounds(), InvalidArgument);
}

TEST(PointSet, ClearResets) {
  PointSet ps(1, {1.0, 2.0});
  ps.clear();
  EXPECT_TRUE(ps.empty());
  EXPECT_EQ(ps.dim(), 1u);
}

TEST(PointSet, EqualityIsStructural) {
  PointSet a(2, {1.0, 2.0});
  PointSet b(2, {1.0, 2.0});
  PointSet c(2, {1.0, 3.0});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(PointSet, SortedIdsSortsCopies) {
  PointSet ps(1, {1.0, 2.0, 3.0}, {9u, 4u, 7u});
  EXPECT_EQ(sorted_ids(ps), (std::vector<PointId>{4u, 7u, 9u}));
}

TEST(PointSet, RawExposesRowMajorStorage) {
  PointSet ps(2, {1.0, 2.0, 3.0, 4.0});
  const auto raw = ps.raw();
  ASSERT_EQ(raw.size(), 4u);
  EXPECT_DOUBLE_EQ(raw[2], 3.0);
}

}  // namespace
}  // namespace mrsky::data
