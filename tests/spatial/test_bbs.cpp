#include "src/spatial/bbs.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "src/dataset/generators.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/verify.hpp"

namespace mrsky::spatial {
namespace {

using data::Distribution;
using data::PointSet;

TEST(Bbs, EmptyInput) {
  EXPECT_TRUE(bbs_skyline(PointSet(2)).empty());
}

TEST(Bbs, SinglePoint) {
  const PointSet ps(3, {0.1, 0.2, 0.3});
  const PointSet sky = bbs_skyline(ps);
  ASSERT_EQ(sky.size(), 1u);
  EXPECT_EQ(sky.id(0), 0u);
}

// Agreement sweep against the naive reference.
using Param = std::tuple<Distribution, std::size_t /*dim*/, std::size_t /*capacity*/>;

class BbsAgreement : public testing::TestWithParam<Param> {};

TEST_P(BbsAgreement, MatchesNaive) {
  const auto [dist, dim, capacity] = GetParam();
  const PointSet ps = data::generate(dist, 500, dim, 0xB0B + dim);
  const RTree tree(ps, capacity);
  const PointSet sky = bbs_skyline(tree);
  EXPECT_TRUE(skyline::same_ids(sky, skyline::naive_skyline(ps)));
  const auto verdict = skyline::verify_skyline(ps, sky);
  EXPECT_TRUE(verdict.ok) << verdict.message;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BbsAgreement,
    testing::Combine(testing::Values(Distribution::kIndependent, Distribution::kCorrelated,
                                     Distribution::kAnticorrelated, Distribution::kClustered),
                     testing::Values(std::size_t{2}, std::size_t{4}, std::size_t{7}),
                     testing::Values(std::size_t{4}, std::size_t{32})),
    [](const auto& param_info) {
      return data::to_string(std::get<0>(param_info.param)) + "_d" +
             std::to_string(std::get<1>(param_info.param)) + "_c" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(Bbs, DuplicatesAllSurvive) {
  PointSet ps(2, {1.0, 1.0, 1.0, 1.0, 2.0, 0.5, 3.0, 3.0});
  const PointSet sky = bbs_skyline(ps);
  EXPECT_EQ(sky.size(), 3u);  // two duplicates + the incomparable point
}

TEST(Bbs, ProgressiveMaxResultsReturnsLowestMindist) {
  const PointSet ps = data::generate(Distribution::kAnticorrelated, 400, 2, 5);
  const PointSet full = skyline::bnl_skyline(ps);
  const PointSet first = bbs_skyline(ps, nullptr, 3);
  ASSERT_EQ(first.size(), 3u);
  // Each returned point is a true skyline point...
  const auto full_ids = sorted_ids(full);
  for (data::PointId id : first.ids()) {
    EXPECT_TRUE(std::binary_search(full_ids.begin(), full_ids.end(), id));
  }
  // ...and they are the 3 skyline points with the smallest coordinate sums.
  std::vector<double> sky_sums;
  for (std::size_t i = 0; i < full.size(); ++i) {
    const auto p = full.point(i);
    sky_sums.push_back(std::accumulate(p.begin(), p.end(), 0.0));
  }
  std::sort(sky_sums.begin(), sky_sums.end());
  double max_returned = 0.0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    const auto p = first.point(i);
    max_returned = std::max(max_returned, std::accumulate(p.begin(), p.end(), 0.0));
  }
  EXPECT_LE(max_returned, sky_sums[2] + 1e-12);
}

TEST(Bbs, PrunesSubtreesOnCorrelatedData) {
  // Correlated data has a tiny skyline; BBS should visit a small fraction of
  // the tree's nodes.
  const PointSet ps = data::generate(Distribution::kCorrelated, 5000, 3, 7);
  const RTree tree(ps, 16);
  BbsReport report;
  (void)bbs_skyline(tree, &report);
  EXPECT_LT(report.nodes_visited, tree.node_count() / 2);
  EXPECT_GT(report.entries_pruned, 0u);
}

TEST(Bbs, FewerDominanceTestsThanNaiveOnEasyData) {
  const PointSet ps = data::generate(Distribution::kCorrelated, 2000, 3, 9);
  BbsReport report;
  (void)bbs_skyline(ps, &report);
  skyline::SkylineStats naive_stats;
  (void)skyline::naive_skyline(ps, &naive_stats);
  EXPECT_LT(report.stats.dominance_tests, naive_stats.dominance_tests / 10);
}

TEST(Bbs, ReportCountsPoints) {
  const PointSet ps = data::generate(Distribution::kIndependent, 300, 3, 11);
  BbsReport report;
  const PointSet sky = bbs_skyline(ps, &report);
  EXPECT_EQ(report.stats.points_in, 300u);
  EXPECT_EQ(report.stats.points_out, sky.size());
  EXPECT_GT(report.nodes_visited, 0u);
}

TEST(Bbs, DeterministicAcrossRuns) {
  const PointSet ps = data::generate(Distribution::kIndependent, 600, 4, 13);
  const PointSet a = bbs_skyline(ps);
  const PointSet b = bbs_skyline(ps);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace mrsky::spatial
