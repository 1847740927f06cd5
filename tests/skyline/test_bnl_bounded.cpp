#include "src/skyline/bnl_bounded.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "src/common/error.hpp"
#include "src/dataset/generators.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/verify.hpp"

namespace mrsky::skyline {
namespace {

using data::Distribution;
using data::PointSet;

TEST(BoundedBnl, RejectsZeroWindow) {
  const PointSet ps(2, {1.0, 2.0});
  EXPECT_THROW((void)bnl_skyline_bounded(ps, 0), mrsky::InvalidArgument);
}

TEST(BoundedBnl, EmptyInput) {
  EXPECT_TRUE(bnl_skyline_bounded(PointSet(3), 4).empty());
}

TEST(BoundedBnl, HugeWindowBehavesLikeUnbounded) {
  const PointSet ps = data::generate(Distribution::kIndependent, 500, 3, 3);
  BoundedBnlReport report;
  const PointSet sky = bnl_skyline_bounded(ps, ps.size(), &report);
  EXPECT_TRUE(same_ids(sky, bnl_skyline(ps)));
  EXPECT_EQ(report.passes, 1u);
  EXPECT_EQ(report.overflow_points, 0u);
}

TEST(BoundedBnl, WindowOfOneStillCorrect) {
  const PointSet ps = data::generate(Distribution::kAnticorrelated, 120, 2, 5);
  const PointSet sky = bnl_skyline_bounded(ps, 1);
  EXPECT_TRUE(same_ids(sky, bnl_skyline(ps)));
}

// Parameterised sweep: correctness must hold for every window size,
// distribution and dimension combination.
using Param = std::tuple<std::size_t /*window*/, Distribution, std::size_t /*dim*/>;

class BoundedBnlSweep : public testing::TestWithParam<Param> {};

TEST_P(BoundedBnlSweep, MatchesUnboundedBnl) {
  const auto [window, dist, dim] = GetParam();
  const PointSet ps = data::generate(dist, 400, dim, 77 + dim);
  BoundedBnlReport report;
  const PointSet sky = bnl_skyline_bounded(ps, window, &report);
  EXPECT_TRUE(same_ids(sky, bnl_skyline(ps)))
      << "window=" << window << " " << data::to_string(dist) << " d=" << dim;
  const auto verdict = verify_skyline(ps, sky);
  EXPECT_TRUE(verdict.ok) << verdict.message;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BoundedBnlSweep,
    testing::Combine(testing::Values(std::size_t{2}, std::size_t{8}, std::size_t{32},
                                     std::size_t{128}),
                     testing::Values(Distribution::kIndependent, Distribution::kCorrelated,
                                     Distribution::kAnticorrelated),
                     testing::Values(std::size_t{2}, std::size_t{5})),
    [](const auto& param_info) {
      return "w" + std::to_string(std::get<0>(param_info.param)) + "_" +
             data::to_string(std::get<1>(param_info.param)) + "_d" +
             std::to_string(std::get<2>(param_info.param));
    });

TEST(BoundedBnl, SmallerWindowsNeedMorePasses) {
  const PointSet ps = data::generate(Distribution::kAnticorrelated, 600, 3, 9);
  BoundedBnlReport tight;
  BoundedBnlReport roomy;
  (void)bnl_skyline_bounded(ps, 4, &tight);
  (void)bnl_skyline_bounded(ps, 256, &roomy);
  EXPECT_GT(tight.passes, roomy.passes);
  EXPECT_GT(tight.overflow_points, roomy.overflow_points);
}

TEST(BoundedBnl, PassCountBoundedByInputSize) {
  // Every pass confirms or kills at least one tuple.
  const PointSet ps = data::generate(Distribution::kAnticorrelated, 200, 2, 11);
  BoundedBnlReport report;
  (void)bnl_skyline_bounded(ps, 2, &report);
  EXPECT_LE(report.passes, ps.size());
}

TEST(BoundedBnl, DuplicatesSurviveBoundedWindow) {
  PointSet ps(2, {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 5.0, 0.5});
  const PointSet sky = bnl_skyline_bounded(ps, 2);
  // Three duplicates of (1,1) plus the incomparable (5,0.5): all skyline.
  EXPECT_EQ(sky.size(), 4u);
}

TEST(BoundedBnl, StatsAccumulate) {
  const PointSet ps = data::generate(Distribution::kIndependent, 300, 3, 13);
  BoundedBnlReport report;
  (void)bnl_skyline_bounded(ps, 16, &report);
  EXPECT_EQ(report.stats.points_in, 300u);
  EXPECT_GT(report.stats.dominance_tests, 0u);
  EXPECT_EQ(report.stats.points_out, bnl_skyline(ps).size());
}

TEST(BoundedBnl, TotalOrderSinglePass) {
  // A dominance chain: the first point kills everything; window never fills.
  PointSet ps(2);
  for (int i = 0; i < 50; ++i) {
    ps.push_back(std::vector<double>{static_cast<double>(i), static_cast<double>(i)});
  }
  BoundedBnlReport report;
  const PointSet sky = bnl_skyline_bounded(ps, 2, &report);
  EXPECT_EQ(sky.size(), 1u);
  EXPECT_EQ(report.passes, 1u);
}

}  // namespace
}  // namespace mrsky::skyline
