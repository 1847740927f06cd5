#include "src/common/stats.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include <vector>

#include "src/common/error.hpp"

namespace mrsky::common {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats s;
  s.add(4.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 4.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
}

TEST(RunningStats, KnownSeries) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, TracksNegativeValues) {
  RunningStats s;
  s.add(-5.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), -5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(MeanStddev, SpanHelpers) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), 1.2909944487358056, 1e-12);
}

TEST(MeanStddev, EmptySpanIsZero) {
  const std::vector<double> xs;
  EXPECT_DOUBLE_EQ(mean(xs), 0.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 0.0);
}

TEST(Percentile, MedianOfOddSeries) {
  EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(percentile({0.0, 10.0}, 25.0), 2.5);
}

TEST(Percentile, ExtremesAreMinMax) {
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 9.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 9.0}, 100.0), 9.0);
}

TEST(Percentile, SingleElement) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 99.0), 7.0);
}

TEST(Percentile, ThrowsOnEmpty) {
  EXPECT_THROW((void)percentile({}, 50.0), InvalidArgument);
}

TEST(Percentile, ThrowsOnBadP) {
  EXPECT_THROW((void)percentile({1.0}, -1.0), InvalidArgument);
  EXPECT_THROW((void)percentile({1.0}, 101.0), InvalidArgument);
}

TEST(CoefficientOfVariation, ZeroForConstantSeries) {
  const std::vector<double> xs = {3.0, 3.0, 3.0};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(xs), 0.0);
}

TEST(CoefficientOfVariation, KnownValue) {
  const std::vector<double> xs = {2.0, 4.0};
  // mean 3, sample stddev sqrt(2)
  EXPECT_NEAR(coefficient_of_variation(xs), std::sqrt(2.0) / 3.0, 1e-12);
}

TEST(CoefficientOfVariation, ZeroMeanGuarded) {
  const std::vector<double> xs = {-1.0, 1.0};
  EXPECT_DOUBLE_EQ(coefficient_of_variation(xs), 0.0);
}

TEST(PearsonCorrelation, PerfectPositive) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<double> ys = {2.0, 4.0, 6.0};
  EXPECT_NEAR(pearson_correlation(xs, ys), 1.0, 1e-12);
}

TEST(PearsonCorrelation, PerfectNegative) {
  const std::vector<double> xs = {1.0, 2.0, 3.0};
  const std::vector<double> ys = {6.0, 4.0, 2.0};
  EXPECT_NEAR(pearson_correlation(xs, ys), -1.0, 1e-12);
}

TEST(PearsonCorrelation, ConstantSeriesIsZero) {
  const std::vector<double> xs = {1.0, 1.0, 1.0};
  const std::vector<double> ys = {1.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(pearson_correlation(xs, ys), 0.0);
}

TEST(PearsonCorrelation, ThrowsOnSizeMismatch) {
  const std::vector<double> xs = {1.0, 2.0};
  const std::vector<double> ys = {1.0};
  EXPECT_THROW((void)pearson_correlation(xs, ys), InvalidArgument);
}

TEST(PearsonCorrelation, ThrowsOnTooFewSamples) {
  const std::vector<double> xs = {1.0};
  const std::vector<double> ys = {1.0};
  EXPECT_THROW((void)pearson_correlation(xs, ys), InvalidArgument);
}

}  // namespace
}  // namespace mrsky::common
