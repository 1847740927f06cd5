#include <gtest/gtest.h>

#include <unordered_set>

#include "src/common/error.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/transforms.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/verify.hpp"

namespace mrsky::data {
namespace {

TEST(Project, SelectsAttributesInOrder) {
  PointSet ps(3, {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  const std::vector<std::size_t> attrs = {2, 0};
  const PointSet out = project(ps, attrs);
  ASSERT_EQ(out.dim(), 2u);
  EXPECT_DOUBLE_EQ(out.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(out.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(out.at(1, 0), 6.0);
}

TEST(Project, PreservesIds) {
  PointSet ps(2, {1.0, 2.0, 3.0, 4.0}, {7u, 9u});
  const std::vector<std::size_t> attrs = {1};
  const PointSet out = project(ps, attrs);
  EXPECT_EQ(out.id(0), 7u);
  EXPECT_EQ(out.id(1), 9u);
}

TEST(Project, AllowsRepeatedAttributes) {
  PointSet ps(2, {1.0, 2.0});
  const std::vector<std::size_t> attrs = {0, 0, 1};
  const PointSet out = project(ps, attrs);
  ASSERT_EQ(out.dim(), 3u);
  EXPECT_DOUBLE_EQ(out.at(0, 1), 1.0);
}

TEST(Project, Validation) {
  PointSet ps(2, {1.0, 2.0});
  const std::vector<std::size_t> empty = {};
  EXPECT_THROW((void)project(ps, empty), mrsky::InvalidArgument);
  const std::vector<std::size_t> out_of_range = {2};
  EXPECT_THROW((void)project(ps, out_of_range), mrsky::InvalidArgument);
}

// Subspace skyline properties.

TEST(Project, SubspaceSkylineContainsSubspaceOptima) {
  // The full-space skyline of a projection IS the subspace skyline; every
  // full-space skyline point is not necessarily in it, but the per-attribute
  // minimum always is.
  const PointSet ps = generate(Distribution::kIndependent, 500, 4, 23);
  const std::vector<std::size_t> attrs = {0, 2};
  const PointSet sub = project(ps, attrs);
  const auto sub_sky = skyline::bnl_skyline(sub);
  const auto verdict = skyline::verify_skyline(sub, sub_sky);
  EXPECT_TRUE(verdict.ok) << verdict.message;
}

TEST(Project, SubspaceSkylineSmallerThanFullSpace) {
  // Fewer dimensions => fewer incomparable pairs => smaller skyline
  // (overwhelmingly, on independent data).
  const PointSet ps = generate(Distribution::kIndependent, 2000, 6, 25);
  const std::vector<std::size_t> attrs = {0, 1};
  const auto full = skyline::bnl_skyline(ps);
  const auto sub = skyline::bnl_skyline(project(ps, attrs));
  EXPECT_LT(sub.size(), full.size());
}

TEST(Project, SingleAttributeSkylineIsTheMinimum) {
  const PointSet ps = generate(Distribution::kIndependent, 300, 3, 27);
  const std::vector<std::size_t> attrs = {1};
  const auto sky = skyline::bnl_skyline(project(ps, attrs));
  const double min1 = ps.attribute_bounds().lo[1];
  for (std::size_t i = 0; i < sky.size(); ++i) {
    EXPECT_DOUBLE_EQ(sky.at(i, 0), min1);
  }
}

}  // namespace
}  // namespace mrsky::data
