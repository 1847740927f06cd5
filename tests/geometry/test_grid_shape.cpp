#include "src/geometry/grid_shape.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "src/common/error.hpp"

namespace mrsky::geo {
namespace {

std::size_t product(const std::vector<std::size_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::size_t{1}, std::multiplies<>());
}

TEST(PrimeFactors, SmallNumbers) {
  EXPECT_EQ(prime_factors(1), (std::vector<std::uint64_t>{}));
  EXPECT_EQ(prime_factors(2), (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(prime_factors(12), (std::vector<std::uint64_t>{2, 2, 3}));
  EXPECT_EQ(prime_factors(97), (std::vector<std::uint64_t>{97}));
  EXPECT_EQ(prime_factors(100), (std::vector<std::uint64_t>{2, 2, 5, 5}));
}

TEST(PrimeFactors, RejectsZero) {
  EXPECT_THROW(prime_factors(0), mrsky::InvalidArgument);
}

TEST(BalancedGridShape, ProductAlwaysExact) {
  for (std::size_t target : {1u, 2u, 7u, 8u, 12u, 16u, 30u, 64u, 97u}) {
    for (std::size_t dims : {1u, 2u, 3u, 5u, 9u}) {
      const auto shape = balanced_grid_shape(target, dims);
      EXPECT_EQ(shape.size(), dims);
      EXPECT_EQ(product(shape), target) << "target=" << target << " dims=" << dims;
    }
  }
}

TEST(BalancedGridShape, PerfectSquareIsBalanced) {
  EXPECT_EQ(balanced_grid_shape(16, 2), (std::vector<std::size_t>{4, 4}));
}

TEST(BalancedGridShape, PowerOfTwoOverManyDims) {
  EXPECT_EQ(balanced_grid_shape(8, 3), (std::vector<std::size_t>{2, 2, 2}));
}

TEST(BalancedGridShape, SingleDimTakesEverything) {
  EXPECT_EQ(balanced_grid_shape(12, 1), (std::vector<std::size_t>{12}));
}

TEST(BalancedGridShape, PrimeLeavesOthersAtOne) {
  EXPECT_EQ(balanced_grid_shape(7, 3), (std::vector<std::size_t>{7, 1, 1}));
}

TEST(BalancedGridShape, SortedLargestFirst) {
  const auto shape = balanced_grid_shape(24, 3);
  for (std::size_t i = 1; i < shape.size(); ++i) EXPECT_GE(shape[i - 1], shape[i]);
  EXPECT_EQ(product(shape), 24u);
}

TEST(BalancedGridShape, RejectsZeros) {
  EXPECT_THROW(balanced_grid_shape(0, 2), mrsky::InvalidArgument);
  EXPECT_THROW(balanced_grid_shape(4, 0), mrsky::InvalidArgument);
}

TEST(LinearIndex, RoundTripsThroughUnlinear) {
  const std::vector<std::size_t> shape = {3, 4, 2};
  for (std::size_t i = 0; i < 24; ++i) {
    const auto cell = unlinear_index(i, shape);
    EXPECT_EQ(linear_index(cell, shape), i);
    for (std::size_t a = 0; a < shape.size(); ++a) EXPECT_LT(cell[a], shape[a]);
  }
}

TEST(LinearIndex, RowMajorOrdering) {
  const std::vector<std::size_t> shape = {2, 3};
  EXPECT_EQ(linear_index({0, 0}, shape), 0u);
  EXPECT_EQ(linear_index({0, 2}, shape), 2u);
  EXPECT_EQ(linear_index({1, 0}, shape), 3u);
  EXPECT_EQ(linear_index({1, 2}, shape), 5u);
}

TEST(LinearIndex, RankMismatchThrows) {
  EXPECT_THROW((void)linear_index({0, 0}, {2}), mrsky::InvalidArgument);
}

TEST(UnlinearIndex, OutOfVolumeThrows) {
  EXPECT_THROW(unlinear_index(6, {2, 3}), mrsky::InvalidArgument);
}

}  // namespace
}  // namespace mrsky::geo
