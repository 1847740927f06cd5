#include "src/skyline/estimate.hpp"

#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/dataset/generators.hpp"
#include "src/skyline/algorithms.hpp"

namespace mrsky::skyline {
namespace {

TEST(ExpectedSkylineSize, BaseCases) {
  EXPECT_DOUBLE_EQ(expected_skyline_size(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(expected_skyline_size(1, 5), 1.0);
  EXPECT_DOUBLE_EQ(expected_skyline_size(1000, 1), 1.0);
}

TEST(ExpectedSkylineSize, TwoDimensionsIsHarmonicNumber) {
  // V(n, 2) = H_n.
  double harmonic = 0.0;
  for (int k = 1; k <= 100; ++k) harmonic += 1.0 / k;
  EXPECT_NEAR(expected_skyline_size(100, 2), harmonic, 1e-12);
}

TEST(ExpectedSkylineSize, SmallExactValues) {
  // V(2, 2) = 1 + 1/2; V(3, 2) = 11/6; V(2, 3) = 1 + ... manual recurrence:
  // V(1,3)=1; V(2,3)=V(1,3)+V(2,2)/2 = 1 + 0.75 = 1.75.
  EXPECT_NEAR(expected_skyline_size(2, 2), 1.5, 1e-12);
  EXPECT_NEAR(expected_skyline_size(3, 2), 11.0 / 6.0, 1e-12);
  EXPECT_NEAR(expected_skyline_size(2, 3), 1.75, 1e-12);
}

TEST(ExpectedSkylineSize, MonotoneInDimension) {
  for (std::size_t d = 1; d < 8; ++d) {
    EXPECT_LT(expected_skyline_size(10000, d), expected_skyline_size(10000, d + 1));
  }
}

TEST(ExpectedSkylineSize, MonotoneInCardinalityForDGe2) {
  for (std::size_t n : {10u, 100u, 1000u}) {
    EXPECT_LT(expected_skyline_size(n, 4), expected_skyline_size(n * 10, 4));
  }
}

TEST(ExpectedSkylineSize, NeverExceedsN) {
  for (std::size_t d = 1; d <= 10; ++d) {
    EXPECT_LE(expected_skyline_size(50, d), 50.0);
  }
}

TEST(ExpectedSkylineSize, MatchesMeasurementOnIndependentData) {
  // Monte-Carlo check: average skyline size over several independent
  // datasets should sit near the analytic expectation.
  const std::size_t n = 2000;
  const std::size_t d = 4;
  double total = 0.0;
  const int trials = 12;
  for (int t = 0; t < trials; ++t) {
    const auto ps = data::generate(data::Distribution::kIndependent, n, d,
                                   static_cast<std::uint64_t>(1000 + t));
    total += static_cast<double>(sfs_skyline(ps).size());
  }
  const double measured = total / trials;
  const double expected = expected_skyline_size(n, d);
  EXPECT_NEAR(measured, expected, 0.25 * expected);
}

TEST(Estimate, RejectsZeroDimension) {
  EXPECT_THROW((void)expected_skyline_size(10, 0), mrsky::InvalidArgument);
}

}  // namespace
}  // namespace mrsky::skyline
