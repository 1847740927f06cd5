#include "src/partition/stats.hpp"

#include <gtest/gtest.h>

#include "src/common/error.hpp"

#include <numeric>

#include "src/dataset/generators.hpp"
#include "src/partition/angular.hpp"
#include "src/partition/dimensional.hpp"
#include "src/partition/factory.hpp"
#include "src/partition/grid.hpp"

namespace mrsky::part {
namespace {

using data::PointSet;

TEST(PartitionStats, SizesSumToPointCount) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 1234, 3, 5);
  DimensionalPartitioner p(8);
  p.fit(ps);
  const auto report = analyze_partitioning(p, ps);
  EXPECT_EQ(std::accumulate(report.sizes.begin(), report.sizes.end(), std::size_t{0}), 1234u);
}

TEST(PartitionStats, LargestIsMaxOfSizes) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 500, 2, 5);
  AngularPartitioner p(4);
  p.fit(ps);
  const auto report = analyze_partitioning(p, ps);
  EXPECT_EQ(report.largest, *std::max_element(report.sizes.begin(), report.sizes.end()));
}

TEST(PartitionStats, PrunedPointsCountsGridVictims) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 2000, 2, 3);
  GridPartitioner p(16);
  p.fit(ps);
  const auto report = analyze_partitioning(p, ps);
  ASSERT_FALSE(report.prunable.empty());
  std::size_t expected = 0;
  for (std::size_t c : report.prunable) expected += report.sizes[c];
  EXPECT_EQ(report.pruned_points, expected);
  EXPECT_GT(report.pruned_points, 0u);
}

TEST(PartitionStats, BalancedAssignmentHasLowCv) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 8000, 2, 7);
  AngularPartitioner p(4);
  p.fit(ps);
  const auto report = analyze_partitioning(p, ps);
  EXPECT_LT(report.balance_cv, 1.0);
}

TEST(PartitionStats, EmptyDatasetYieldsZeroedReport) {
  // Fitted on real data, analyzed over an empty set of the same dim: every
  // aggregate must be zero and the CV must be 0 (not NaN).
  const PointSet fit_on = data::generate(data::Distribution::kIndependent, 400, 3, 19);
  DimensionalPartitioner p(4);
  p.fit(fit_on);
  const PointSet empty(fit_on.dim());
  const auto report = analyze_partitioning(p, empty);
  ASSERT_EQ(report.sizes.size(), 4u);
  for (std::size_t s : report.sizes) EXPECT_EQ(s, 0u);
  EXPECT_EQ(report.non_empty, 0u);
  EXPECT_EQ(report.largest, 0u);
  EXPECT_EQ(report.pruned_points, 0u);
  EXPECT_EQ(report.balance_cv, 0.0);
}

TEST(PartitionStats, SinglePartitionIsPerfectlyBalanced) {
  const PointSet ps = data::generate(data::Distribution::kAnticorrelated, 700, 3, 23);
  AngularPartitioner p(1);
  p.fit(ps);
  const auto report = analyze_partitioning(p, ps);
  ASSERT_EQ(report.sizes.size(), 1u);
  EXPECT_EQ(report.sizes[0], ps.size());
  EXPECT_EQ(report.non_empty, 1u);
  EXPECT_EQ(report.largest, ps.size());
  EXPECT_EQ(report.balance_cv, 0.0);
}

TEST(PartitionStats, AllPointsInOnePartitionShowsImbalance) {
  // Identical points collapse every dimensional split boundary: the whole
  // dataset lands in one of the 4 partitions and the CV reflects it.
  PointSet ps(3);
  const std::vector<double> coords{0.5, 0.5, 0.5};
  for (data::PointId id = 0; id < 120; ++id) ps.push_back(coords, id);
  DimensionalPartitioner p(4);
  p.fit(ps);
  const auto report = analyze_partitioning(p, ps);
  EXPECT_EQ(report.non_empty, 1u);
  EXPECT_EQ(report.largest, ps.size());
  // sizes = {120, 0, 0, 0} up to position: mean 30, stddev 30*sqrt(3).
  EXPECT_GT(report.balance_cv, 1.0);
}

TEST(Factory, CreatesEveryScheme) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 100, 3, 17);
  for (Scheme s : {Scheme::kDimensional, Scheme::kGrid, Scheme::kAngular,
                   Scheme::kAngularEquiDepth, Scheme::kAngularRadial, Scheme::kPivot, Scheme::kRandom}) {
    PartitionerOptions options;
    options.num_partitions = 6;
    auto p = make_partitioner(s, options);
    ASSERT_NE(p, nullptr);
    p->fit(ps);
    EXPECT_EQ(p->num_partitions(), 6u) << to_string(s);
    EXPECT_LT(p->assign(ps.point(0)), 6u);
  }
}

TEST(Factory, ParseRoundTrips) {
  for (Scheme s : {Scheme::kDimensional, Scheme::kGrid, Scheme::kAngular,
                   Scheme::kAngularEquiDepth, Scheme::kAngularRadial, Scheme::kPivot, Scheme::kRandom}) {
    EXPECT_EQ(parse_scheme(to_string(s)), s);
  }
}

TEST(Factory, ParseAliases) {
  EXPECT_EQ(parse_scheme("mr-dim"), Scheme::kDimensional);
  EXPECT_EQ(parse_scheme("mr-grid"), Scheme::kGrid);
  EXPECT_EQ(parse_scheme("mr-angle"), Scheme::kAngular);
  EXPECT_EQ(parse_scheme("hash"), Scheme::kRandom);
}

TEST(Factory, ParseRejectsUnknown) {
  EXPECT_THROW((void)parse_scheme("kd-tree"), mrsky::RuntimeError);
  EXPECT_THROW((void)parse_scheme("auto"), mrsky::RuntimeError);
  EXPECT_THROW((void)parse_scheme("adaptive"), mrsky::RuntimeError);
}

TEST(Factory, SplitDimPassedThrough) {
  PartitionerOptions options;
  options.num_partitions = 2;
  options.split_dim = 1;
  auto p = make_partitioner(Scheme::kDimensional, options);
  const PointSet ps(2, {0.0, 0.0, 0.0, 1.0});
  p->fit(ps);
  EXPECT_EQ(p->assign(std::vector<double>{0.0, 0.9}), 1u);
}

}  // namespace
}  // namespace mrsky::part
