#include "src/skyline/extensions.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "src/common/error.hpp"
#include "src/dataset/generators.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/verify.hpp"

namespace mrsky::skyline {
namespace {

using data::PointSet;

PointSet staircase() {
  // Strict 2-D staircase: 4 skyline points, 4 dominated ones.
  return PointSet(2, {
                         1.0, 8.0,  // 0: skyline
                         2.0, 6.0,  // 1: skyline
                         4.0, 3.0,  // 2: skyline
                         7.0, 1.0,  // 3: skyline
                         3.0, 8.5,  // 4: dominated by 1 (2,6)
                         5.0, 7.0,  // 5: dominated by 1
                         6.0, 4.0,  // 6: dominated by 2
                         9.0, 9.0,  // 7: dominated by all
                     });
}

// ---- k-skyband -----------------------------------------------------------

TEST(KSkyband, OneSkybandIsTheSkyline) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 400, 3, 5);
  EXPECT_TRUE(same_ids(k_skyband(ps, 1), bnl_skyline(ps)));
}

TEST(KSkyband, MonotoneInK) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 400, 3, 7);
  std::size_t previous = 0;
  for (std::size_t k = 1; k <= 5; ++k) {
    const std::size_t size = k_skyband(ps, k).size();
    EXPECT_GE(size, previous);
    previous = size;
  }
}

TEST(KSkyband, SkybandContainsSkyline) {
  const PointSet ps = data::generate(data::Distribution::kAnticorrelated, 300, 2, 9);
  const auto sky_ids = sorted_ids(bnl_skyline(ps));
  const auto band = k_skyband(ps, 3);
  std::unordered_set<data::PointId> band_ids(band.ids().begin(), band.ids().end());
  for (data::PointId id : sky_ids) EXPECT_TRUE(band_ids.contains(id));
}

TEST(KSkyband, ExactCountsOnStaircase) {
  const PointSet ps = staircase();
  EXPECT_EQ(k_skyband(ps, 1).size(), 4u);
  // Point 6 = (6,4) is dominated only by point 2 = (4,3), so it joins the
  // 2-skyband; point 7 = (9,9) is dominated by many and stays out. Point 4 =
  // (3,8.5) has two dominators (points 0 and 1), so it also stays out.
  const auto band2 = k_skyband(ps, 2);
  std::unordered_set<data::PointId> ids(band2.ids().begin(), band2.ids().end());
  EXPECT_TRUE(ids.contains(6u));
  EXPECT_FALSE(ids.contains(4u));
  EXPECT_FALSE(ids.contains(7u));
}

TEST(KSkyband, LargeKReturnsEverything) {
  const PointSet ps = staircase();
  EXPECT_EQ(k_skyband(ps, ps.size()).size(), ps.size());
}

TEST(KSkyband, RejectsZeroK) {
  EXPECT_THROW((void)k_skyband(staircase(), 0), mrsky::InvalidArgument);
}

TEST(KSkyband, StatsAreCounted) {
  SkylineStats stats;
  (void)k_skyband(staircase(), 2, &stats);
  EXPECT_EQ(stats.points_in, 8u);
  EXPECT_GT(stats.dominance_tests, 0u);
}

// ---- representative skyline ------------------------------------------------

TEST(RepresentativeSkyline, PicksAreSkylinePoints) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 500, 3, 11);
  const auto sky_ids = sorted_ids(bnl_skyline(ps));
  const auto result = representative_skyline(ps, 5);
  for (data::PointId id : result.representatives.ids()) {
    EXPECT_TRUE(std::binary_search(sky_ids.begin(), sky_ids.end(), id));
  }
}

TEST(RepresentativeSkyline, AtMostKPicks) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 500, 3, 13);
  EXPECT_LE(representative_skyline(ps, 4).representatives.size(), 4u);
}

TEST(RepresentativeSkyline, SmallSkylineReturnsAllOfIt) {
  const PointSet ps = data::generate(data::Distribution::kCorrelated, 500, 2, 15);
  const auto sky = bnl_skyline(ps);
  const auto result = representative_skyline(ps, sky.size() + 10);
  EXPECT_EQ(result.representatives.size(), sky.size());
}

TEST(RepresentativeSkyline, GreedyCoverageIsNonIncreasing) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 800, 3, 17);
  const auto result = representative_skyline(ps, 6);
  for (std::size_t i = 1; i < result.coverage.size(); ++i) {
    EXPECT_LE(result.coverage[i], result.coverage[i - 1]);
  }
}

TEST(RepresentativeSkyline, TotalCoveredMatchesSum) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 500, 2, 19);
  const auto result = representative_skyline(ps, 3);
  std::size_t sum = 0;
  for (std::size_t c : result.coverage) sum += c;
  EXPECT_EQ(result.total_covered, sum);
}

TEST(RepresentativeSkyline, FirstPickMaximisesCoverage) {
  // Point 1 (2,6) dominates {4, 5, 7} and point 2 (4,3) dominates {5, 6, 7}
  // — both cover three points, more than points 0 or 3. The greedy breaks
  // the tie toward the earlier skyline point, so the pick is id 1 with
  // coverage exactly 3.
  const auto result = representative_skyline(staircase(), 1);
  ASSERT_EQ(result.representatives.size(), 1u);
  EXPECT_EQ(result.representatives.id(0), 1u);
  EXPECT_EQ(result.coverage[0], 3u);
}

TEST(RepresentativeSkyline, EmptyInputYieldsNothing) {
  const auto result = representative_skyline(PointSet(3), 4);
  EXPECT_TRUE(result.representatives.empty());
  EXPECT_EQ(result.total_covered, 0u);
}

TEST(RepresentativeSkyline, RejectsZeroK) {
  EXPECT_THROW((void)representative_skyline(staircase(), 0), mrsky::InvalidArgument);
}

TEST(RepresentativeSkyline, DeterministicAcrossRuns) {
  const PointSet ps = data::generate(data::Distribution::kAnticorrelated, 400, 3, 21);
  const auto a = representative_skyline(ps, 5);
  const auto b = representative_skyline(ps, 5);
  EXPECT_EQ(sorted_ids(a.representatives), sorted_ids(b.representatives));
}

// ---- weighted top-k --------------------------------------------------------

TEST(TopKWeighted, ReturnsOnlySkylineMembers) {
  const PointSet ps = data::generate(data::Distribution::kIndependent, 300, 2, 23);
  const auto sky_ids = sorted_ids(bnl_skyline(ps));
  const std::vector<double> weights = {1.0, 1.0};
  for (const auto& entry : top_k_weighted(ps, weights, 10)) {
    EXPECT_TRUE(std::binary_search(sky_ids.begin(), sky_ids.end(), entry.id));
  }
}

TEST(TopKWeighted, ScoresAscend) {
  const PointSet ps = data::generate(data::Distribution::kAnticorrelated, 300, 3, 25);
  const std::vector<double> weights = {1.0, 2.0, 0.5};
  const auto ranked = top_k_weighted(ps, weights, 20);
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_LE(ranked[i - 1].score, ranked[i].score);
  }
}

TEST(TopKWeighted, ExtremeWeightSelectsAxisMinimum) {
  // Weight only attribute 0: the best-scoring skyline point must achieve the
  // dataset minimum of attribute 0 (that minimum is always on the skyline).
  const PointSet ps = data::generate(data::Distribution::kIndependent, 300, 2, 27);
  const std::vector<double> weights = {1.0, 0.0};
  const auto ranked = top_k_weighted(ps, weights, 1);
  ASSERT_EQ(ranked.size(), 1u);
  const double min0 = ps.attribute_bounds().lo[0];
  EXPECT_DOUBLE_EQ(ranked[0].score, min0);
}

TEST(TopKWeighted, KLargerThanSkylineReturnsWholeSkyline) {
  const PointSet ps = staircase();
  const std::vector<double> weights = {1.0, 1.0};
  EXPECT_EQ(top_k_weighted(ps, weights, 100).size(), 4u);
}

TEST(TopKWeighted, RejectsBadWeights) {
  const PointSet ps = staircase();
  const std::vector<double> wrong_size = {1.0};
  EXPECT_THROW((void)top_k_weighted(ps, wrong_size, 3), mrsky::InvalidArgument);
  const std::vector<double> negative = {1.0, -1.0};
  EXPECT_THROW((void)top_k_weighted(ps, negative, 3), mrsky::InvalidArgument);
}

TEST(TopKWeighted, TieBreaksById) {
  PointSet ps(2, {1.0, 2.0, 2.0, 1.0}, {9u, 4u});  // equal weighted sums
  const std::vector<double> weights = {1.0, 1.0};
  const auto ranked = top_k_weighted(ps, weights, 2);
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].id, 4u);
  EXPECT_EQ(ranked[1].id, 9u);
}

}  // namespace
}  // namespace mrsky::skyline
