#include "src/spatial/nn_skyline.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "src/dataset/generators.hpp"
#include "src/dataset/transforms.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/verify.hpp"

namespace mrsky::spatial {
namespace {

using data::Distribution;
using data::PointSet;

TEST(NnSkyline, EmptyInput) {
  EXPECT_TRUE(nn_skyline(PointSet(2)).empty());
}

TEST(NnSkyline, SinglePoint) {
  const PointSet ps(2, {0.3, 0.7});
  const PointSet sky = nn_skyline(ps);
  ASSERT_EQ(sky.size(), 1u);
  EXPECT_EQ(sky.id(0), 0u);
}

TEST(NnSkyline, FirstNnIsMinimumSumPoint) {
  // The paper's §IV premise: the point nearest the axes is skyline.
  const PointSet ps = data::generate(Distribution::kIndependent, 200, 2, 3);
  NnSkylineReport report;
  const PointSet sky = nn_skyline(ps, &report);
  // Find the global min-sum point; it must be in the result.
  double best = 1e18;
  data::PointId best_id = 0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const double sum = ps.at(i, 0) + ps.at(i, 1);
    if (sum < best) {
      best = sum;
      best_id = ps.id(i);
    }
  }
  bool found = false;
  for (data::PointId id : sky.ids()) found = found || (id == best_id);
  EXPECT_TRUE(found);
  EXPECT_GT(report.nn_queries, 0u);
}

using Param = std::tuple<Distribution, std::size_t /*dim*/>;

class NnSkylineAgreement : public testing::TestWithParam<Param> {};

TEST_P(NnSkylineAgreement, MatchesNaive) {
  const auto [dist, dim] = GetParam();
  const PointSet ps = data::generate(dist, 400, dim, 0x22 + dim);
  const PointSet sky = nn_skyline(ps);
  EXPECT_TRUE(skyline::same_ids(sky, skyline::naive_skyline(ps)))
      << data::to_string(dist) << " d=" << dim;
  const auto verdict = skyline::verify_skyline(ps, sky);
  EXPECT_TRUE(verdict.ok) << verdict.message;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NnSkylineAgreement,
    testing::Combine(testing::Values(Distribution::kIndependent, Distribution::kCorrelated,
                                     Distribution::kAnticorrelated),
                     testing::Values(std::size_t{2}, std::size_t{3}, std::size_t{4})),
    [](const auto& param_info) {
      return data::to_string(std::get<0>(param_info.param)) + "_d" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(NnSkyline, DuplicatesAllReported) {
  // Strict sub-region bounds would hide duplicates; the twin index must
  // restore them.
  PointSet ps(2, {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 0.5, 5.0, 5.0});
  const PointSet sky = nn_skyline(ps);
  EXPECT_EQ(sky.size(), 4u);  // three duplicates + (2, 0.5)
}

TEST(NnSkyline, DuplicateInjectionProperty) {
  const PointSet base = data::generate(Distribution::kIndependent, 200, 3, 7);
  common::Rng rng(8);
  const PointSet noisy = data::with_duplicates(base, 60, rng);
  EXPECT_TRUE(skyline::same_ids(nn_skyline(noisy), skyline::bnl_skyline(noisy)));
}

TEST(NnSkyline, RegionDeduplicationBoundsWork) {
  // d=2 has non-overlapping sub-regions: no duplicate hits at all.
  const PointSet ps = data::generate(Distribution::kAnticorrelated, 500, 2, 9);
  NnSkylineReport report;
  (void)nn_skyline(ps, &report);
  EXPECT_EQ(report.duplicate_hits, 0u);
}

TEST(NnSkyline, OverlapAtHigherDimensionsIsObserved) {
  // d >= 3 sub-regions overlap: duplicate rediscoveries happen and are
  // counted (this is the algorithm's known weakness the report exposes).
  const PointSet ps = data::generate(Distribution::kIndependent, 800, 4, 11);
  NnSkylineReport report;
  (void)nn_skyline(ps, &report);
  EXPECT_GT(report.duplicate_hits, 0u);
  EXPECT_GT(report.regions_processed, report.nn_queries / 2);
}

TEST(NnSkyline, DeterministicAcrossRuns) {
  const PointSet ps = data::generate(Distribution::kIndependent, 300, 3, 13);
  EXPECT_EQ(nn_skyline(ps), nn_skyline(ps));
}

TEST(NnSkyline, ReportCountsArePlausible) {
  const PointSet ps = data::generate(Distribution::kCorrelated, 600, 3, 15);
  NnSkylineReport report;
  const PointSet sky = nn_skyline(ps, &report);
  EXPECT_EQ(report.stats.points_in, 600u);
  EXPECT_EQ(report.stats.points_out, sky.size());
  // One NN query per processed region.
  EXPECT_EQ(report.nn_queries, report.regions_processed);
}

}  // namespace
}  // namespace mrsky::spatial
