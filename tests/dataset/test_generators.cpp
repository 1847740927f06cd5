#include "src/dataset/generators.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "src/common/error.hpp"
#include "src/common/stats.hpp"

namespace mrsky::data {
namespace {

// Parameterised sanity sweep: every distribution must produce the requested
// shape, stay inside [0, 1]^d, and be deterministic under the same seed.
class GeneratorSweep : public testing::TestWithParam<Distribution> {};

TEST_P(GeneratorSweep, ShapeMatchesRequest) {
  const PointSet ps = generate(GetParam(), 500, 4, 42);
  EXPECT_EQ(ps.size(), 500u);
  EXPECT_EQ(ps.dim(), 4u);
}

TEST_P(GeneratorSweep, ValuesInsideUnitCube) {
  const PointSet ps = generate(GetParam(), 2000, 5, 7);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    for (std::size_t a = 0; a < ps.dim(); ++a) {
      EXPECT_GE(ps.at(i, a), 0.0);
      EXPECT_LE(ps.at(i, a), 1.0);
    }
  }
}

TEST_P(GeneratorSweep, SameSeedSameData) {
  const PointSet a = generate(GetParam(), 300, 3, 99);
  const PointSet b = generate(GetParam(), 300, 3, 99);
  EXPECT_EQ(a, b);
}

TEST_P(GeneratorSweep, DifferentSeedDifferentData) {
  const PointSet a = generate(GetParam(), 300, 3, 1);
  const PointSet b = generate(GetParam(), 300, 3, 2);
  EXPECT_NE(a, b);
}

TEST_P(GeneratorSweep, SingleDimensionSupported) {
  const PointSet ps = generate(GetParam(), 100, 1, 5);
  EXPECT_EQ(ps.dim(), 1u);
  EXPECT_EQ(ps.size(), 100u);
}

TEST_P(GeneratorSweep, ZeroPointsIsEmpty) {
  const PointSet ps = generate(GetParam(), 0, 3, 5);
  EXPECT_TRUE(ps.empty());
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, GeneratorSweep,
                         testing::Values(Distribution::kIndependent, Distribution::kCorrelated,
                                         Distribution::kAnticorrelated,
                                         Distribution::kClustered),
                         [](const auto& param_info) { return to_string(param_info.param); });

TEST(Generators, CorrelatedAttributesMoveTogether) {
  const PointSet ps = generate(Distribution::kCorrelated, 5000, 2, 11);
  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    xs.push_back(ps.at(i, 0));
    ys.push_back(ps.at(i, 1));
  }
  EXPECT_GT(common::pearson_correlation(xs, ys), 0.8);
}

TEST(Generators, AnticorrelatedAttributesOppose) {
  const PointSet ps = generate(Distribution::kAnticorrelated, 5000, 2, 11);
  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    xs.push_back(ps.at(i, 0));
    ys.push_back(ps.at(i, 1));
  }
  EXPECT_LT(common::pearson_correlation(xs, ys), -0.5);
}

TEST(Generators, IndependentAttributesUncorrelated) {
  const PointSet ps = generate(Distribution::kIndependent, 5000, 2, 11);
  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    xs.push_back(ps.at(i, 0));
    ys.push_back(ps.at(i, 1));
  }
  EXPECT_NEAR(common::pearson_correlation(xs, ys), 0.0, 0.05);
}

TEST(Generators, AnticorrelatedSumsConcentrateNearHalf) {
  const std::size_t d = 6;
  const PointSet ps = generate(Distribution::kAnticorrelated, 2000, d, 3);
  common::RunningStats sums;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    double s = 0.0;
    for (std::size_t a = 0; a < d; ++a) s += ps.at(i, a);
    sums.add(s / static_cast<double>(d));
  }
  EXPECT_NEAR(sums.mean(), 0.5, 0.02);
  // Per-coordinate averages spread, but the mean across coordinates is tight.
  EXPECT_LT(sums.stddev(), 0.15);
}

TEST(Generators, ClusteredRespectsClusterCount) {
  GeneratorOptions options;
  options.cluster_count = 2;
  options.cluster_spread = 0.001;  // essentially point-masses
  const PointSet ps = generate(Distribution::kClustered, 1000, 2, 17, options);
  // With two tight blobs, distinct rounded locations should be about 2.
  std::vector<std::pair<int, int>> seen;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const auto key = std::make_pair(static_cast<int>(ps.at(i, 0) * 50),
                                    static_cast<int>(ps.at(i, 1) * 50));
    if (std::find(seen.begin(), seen.end(), key) == seen.end()) seen.push_back(key);
  }
  EXPECT_LE(seen.size(), 6u);  // two blobs, a little rounding slack
}

TEST(Generators, ParseRoundTrips) {
  for (Distribution d : {Distribution::kIndependent, Distribution::kCorrelated,
                         Distribution::kAnticorrelated, Distribution::kClustered}) {
    EXPECT_EQ(parse_distribution(to_string(d)), d);
  }
}

TEST(Generators, ParseAliases) {
  EXPECT_EQ(parse_distribution("indep"), Distribution::kIndependent);
  EXPECT_EQ(parse_distribution("anti"), Distribution::kAnticorrelated);
  EXPECT_EQ(parse_distribution("corr"), Distribution::kCorrelated);
}

TEST(Generators, ParseRejectsUnknown) {
  EXPECT_THROW((void)parse_distribution("zipfian"), RuntimeError);
}

TEST(Generators, RejectsZeroDimension) {
  EXPECT_THROW(generate(Distribution::kIndependent, 10, 0, 1), InvalidArgument);
}

TEST(Generators, ClusteredRejectsZeroClusters) {
  common::Rng rng(1);
  EXPECT_THROW(generate_clustered(10, 2, rng, 0, 0.1), InvalidArgument);
}

}  // namespace
}  // namespace mrsky::data
