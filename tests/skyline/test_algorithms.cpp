#include "src/skyline/algorithms.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "src/common/error.hpp"
#include "src/dataset/generators.hpp"
#include "src/skyline/verify.hpp"

namespace mrsky::skyline {
namespace {

using data::Distribution;
using data::PointSet;

// ---- Hand-checkable fixtures -------------------------------------------

PointSet paper_figure1_like() {
  // 2-D layout mirroring the paper's Fig. 1: seven skyline points along the
  // contour and one dominated point (id 7, mirrors s8).
  return PointSet(2, {
                         0.5, 9.0,  // s1
                         1.0, 6.0,  // s2
                         2.0, 4.0,  // s3
                         3.5, 2.5,  // s4
                         5.0, 2.0,  // s5
                         7.0, 1.5,  // s6
                         9.0, 1.0,  // s7
                         5.0, 5.0,  // s8 — dominated by s3/s4/s5
                     });
}

TEST(BnlSkyline, PaperFigureExample) {
  const PointSet sky = bnl_skyline(paper_figure1_like());
  EXPECT_EQ(sorted_ids(sky), (std::vector<data::PointId>{0, 1, 2, 3, 4, 5, 6}));
}

TEST(BnlSkyline, SinglePointIsItsOwnSkyline) {
  const PointSet ps(2, {1.0, 2.0});
  const PointSet sky = bnl_skyline(ps);
  EXPECT_EQ(sky.size(), 1u);
}

TEST(BnlSkyline, EmptyInputEmptyOutput) {
  const PointSet ps(3);
  EXPECT_TRUE(bnl_skyline(ps).empty());
}

TEST(BnlSkyline, TotalOrderLeavesSingleSurvivor) {
  // Chain p0 < p1 < ... in every coordinate: only p0 survives.
  PointSet ps(2);
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> p = {static_cast<double>(i), static_cast<double>(i)};
    ps.push_back(p);
  }
  const PointSet sky = bnl_skyline(ps);
  ASSERT_EQ(sky.size(), 1u);
  EXPECT_EQ(sky.id(0), 0u);
}

TEST(BnlSkyline, AntichainKeepsEverything) {
  // Perfect anti-diagonal: nothing dominates anything.
  PointSet ps(2);
  for (int i = 0; i < 20; ++i) {
    const std::vector<double> p = {static_cast<double>(i), static_cast<double>(19 - i)};
    ps.push_back(p);
  }
  EXPECT_EQ(bnl_skyline(ps).size(), 20u);
}

TEST(BnlSkyline, DuplicateUndominatedPointsAllKept) {
  PointSet ps(2, {1.0, 1.0, 1.0, 1.0, 2.0, 0.5});
  const PointSet sky = bnl_skyline(ps);
  EXPECT_EQ(sky.size(), 3u);  // the two duplicates and the incomparable third
}

TEST(BnlSkyline, DuplicateDominatedPointsAllDropped) {
  PointSet ps(2, {5.0, 5.0, 5.0, 5.0, 1.0, 1.0});
  const PointSet sky = bnl_skyline(ps);
  ASSERT_EQ(sky.size(), 1u);
  EXPECT_EQ(sky.id(0), 2u);
}

TEST(BnlSkyline, OrderInsensitive) {
  const PointSet forward = paper_figure1_like();
  // Reverse the point order; skyline ids must match.
  PointSet reversed(2);
  for (std::size_t i = forward.size(); i-- > 0;) {
    reversed.push_back(forward.point(i), forward.id(i));
  }
  EXPECT_TRUE(same_ids(bnl_skyline(forward), bnl_skyline(reversed)));
}

TEST(BnlSkyline, StatsCountWork) {
  SkylineStats stats;
  (void)bnl_skyline(paper_figure1_like(), &stats);
  EXPECT_EQ(stats.points_in, 8u);
  EXPECT_EQ(stats.points_out, 7u);
  EXPECT_GT(stats.dominance_tests, 0u);
}

TEST(AlgorithmParse, RoundTrips) {
  for (Algorithm a : {Algorithm::kBnl, Algorithm::kSfs, Algorithm::kDivideConquer,
                      Algorithm::kNaive}) {
    EXPECT_EQ(parse_algorithm(to_string(a)), a);
  }
  EXPECT_THROW((void)parse_algorithm("quicksky"), mrsky::RuntimeError);
}

// ---- Cross-algorithm agreement sweep ------------------------------------
//
// Every algorithm must produce the identical skyline (as an id set) as the
// naive O(n²) reference, across distributions and dimensions.

using SweepParam = std::tuple<Algorithm, Distribution, std::size_t /*dim*/>;

class AlgorithmAgreement : public testing::TestWithParam<SweepParam> {};

TEST_P(AlgorithmAgreement, MatchesNaiveReference) {
  const auto [algo, dist, dim] = GetParam();
  const PointSet ps = data::generate(dist, 600, dim, 0xDA7A + dim);
  const PointSet expected = naive_skyline(ps);
  const PointSet actual = compute_skyline(ps, algo);
  EXPECT_TRUE(same_ids(expected, actual))
      << to_string(algo) << " disagrees with naive on " << to_string(dist) << " d=" << dim;
}

TEST_P(AlgorithmAgreement, OutputIsValidSkyline) {
  const auto [algo, dist, dim] = GetParam();
  const PointSet ps = data::generate(dist, 300, dim, 0xBEEF + dim);
  const auto result = verify_skyline(ps, compute_skyline(ps, algo));
  EXPECT_TRUE(result.ok) << result.message;
}

TEST_P(AlgorithmAgreement, SkylineOfSkylineIsIdentity) {
  const auto [algo, dist, dim] = GetParam();
  const PointSet ps = data::generate(dist, 400, dim, 0xF00D + dim);
  const PointSet once = compute_skyline(ps, algo);
  const PointSet twice = compute_skyline(once, algo);
  EXPECT_TRUE(same_ids(once, twice));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AlgorithmAgreement,
    testing::Combine(testing::Values(Algorithm::kBnl, Algorithm::kSfs,
                                     Algorithm::kDivideConquer),
                     testing::Values(Distribution::kIndependent, Distribution::kCorrelated,
                                     Distribution::kAnticorrelated),
                     testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{4},
                                     std::size_t{7})),
    [](const auto& param_info) {
      return to_string(std::get<0>(param_info.param)) + "_" +
             data::to_string(std::get<1>(param_info.param)) + "_d" +
             std::to_string(std::get<2>(param_info.param));
    });

// ---- Skyline size behaviour ---------------------------------------------

TEST(SkylineSize, GrowsWithDimension) {
  const PointSet d2 = data::generate(Distribution::kIndependent, 2000, 2, 77);
  const PointSet d8 = data::generate(Distribution::kIndependent, 2000, 8, 77);
  EXPECT_LT(bnl_skyline(d2).size(), bnl_skyline(d8).size());
}

TEST(SkylineSize, AnticorrelatedLargerThanCorrelated) {
  const PointSet anti = data::generate(Distribution::kAnticorrelated, 2000, 3, 5);
  const PointSet corr = data::generate(Distribution::kCorrelated, 2000, 3, 5);
  EXPECT_GT(bnl_skyline(anti).size(), bnl_skyline(corr).size());
}

TEST(SfsSkyline, CheaperThanBnlOnAnticorrelated) {
  // SFS's presort makes its window append-only; on hostile data it should
  // never do more dominance tests than BNL by a wide margin.
  const PointSet ps = data::generate(Distribution::kAnticorrelated, 1500, 4, 9);
  SkylineStats bnl_stats, sfs_stats;
  (void)bnl_skyline(ps, &bnl_stats);
  (void)sfs_skyline(ps, &sfs_stats);
  EXPECT_LE(sfs_stats.dominance_tests, bnl_stats.dominance_tests * 2);
}

}  // namespace
}  // namespace mrsky::skyline
