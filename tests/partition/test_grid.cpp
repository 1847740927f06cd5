#include "src/partition/grid.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "src/common/error.hpp"
#include "src/dataset/generators.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/verify.hpp"

namespace mrsky::part {
namespace {

using data::PointSet;

PointSet unit_square_corners() {
  // One point per quadrant of [0,1]²; fixes the fitted bounds.
  return PointSet(2, {
                         0.1, 0.1,  // bottom-left
                         0.9, 0.1,  // bottom-right
                         0.1, 0.9,  // top-left
                         0.9, 0.9,  // top-right
                         0.0, 0.0,  // pins min corner
                         1.0, 1.0,  // pins max corner
                     });
}

TEST(GridPartitioner, FourCellsIn2D) {
  GridPartitioner p(4);
  p.fit(unit_square_corners());
  EXPECT_EQ(p.shape(), (std::vector<std::size_t>{2, 2}));
  EXPECT_EQ(p.num_partitions(), 4u);
}

TEST(GridPartitioner, QuadrantAssignments) {
  GridPartitioner p(4);
  p.fit(unit_square_corners());
  const std::size_t bl = p.assign(std::vector<double>{0.1, 0.1});
  const std::size_t br = p.assign(std::vector<double>{0.9, 0.1});
  const std::size_t tl = p.assign(std::vector<double>{0.1, 0.9});
  const std::size_t tr = p.assign(std::vector<double>{0.9, 0.9});
  // All four quadrants are distinct cells.
  std::vector<std::size_t> cells = {bl, br, tl, tr};
  std::sort(cells.begin(), cells.end());
  EXPECT_EQ(cells, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(GridPartitioner, PaperExamplePrunesTopRightCell) {
  // §III-B: with 4 cells and all quadrants occupied, the bottom-left cell
  // dominates the top-right cell, so exactly that one is prunable.
  GridPartitioner p(4);
  p.fit(unit_square_corners());
  const std::size_t tr = p.assign(std::vector<double>{0.9, 0.9});
  const auto prunable = p.prunable_partitions();
  ASSERT_EQ(prunable.size(), 1u);
  EXPECT_EQ(prunable[0], tr);
}

TEST(GridPartitioner, NoPruningWhenDominatingCellEmpty) {
  // Bounds span [0,1]² but the bottom-left cell is EMPTY (the extreme values
  // come from different points), so the top-right cell has no dominator:
  // neither top-left nor bottom-right dominates it in both dimensions.
  PointSet ps(2, {
                     0.9, 0.0,  // bottom-right (pins y-min)
                     0.0, 0.9,  // top-left (pins x-min)
                     1.0, 1.0,  // top-right (pins both maxima)
                 });
  GridPartitioner p(4);
  p.fit(ps);
  EXPECT_TRUE(p.prunable_partitions().empty());
}

TEST(GridPartitioner, PruningIsSafeForSkylineCorrectness) {
  // Dropping every prunable cell's points must not change the skyline.
  const PointSet ps = data::generate(data::Distribution::kIndependent, 2000, 2, 99);
  GridPartitioner p(16);
  p.fit(ps);
  const auto prunable = p.prunable_partitions();
  ASSERT_FALSE(prunable.empty());  // independent 2-D data: some cell prunable

  PointSet kept(ps.dim());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const std::size_t cell = p.assign(ps.point(i));
    if (std::find(prunable.begin(), prunable.end(), cell) == prunable.end()) {
      kept.push_back(ps.point(i), ps.id(i));
    }
  }
  EXPECT_LT(kept.size(), ps.size());  // something was actually pruned
  EXPECT_TRUE(skyline::same_ids(skyline::bnl_skyline(ps), skyline::bnl_skyline(kept)));
}

TEST(GridPartitioner, PrunableNeverContainsMinimalCell) {
  const PointSet ps = data::generate(data::Distribution::kAnticorrelated, 1000, 3, 7);
  GridPartitioner p(8);
  p.fit(ps);
  // The cell containing the per-attribute minimum corner can never be pruned.
  const auto mins = ps.attribute_bounds().lo;
  const std::size_t min_cell = p.assign(mins);
  for (std::size_t c : p.prunable_partitions()) EXPECT_NE(c, min_cell);
}

TEST(GridPartitioner, AssignBeforeFitThrows) {
  GridPartitioner p(4);
  const std::vector<double> point = {0.5, 0.5};
  EXPECT_THROW((void)p.assign(point), mrsky::RuntimeError);
}

TEST(GridPartitioner, DimensionMismatchThrows) {
  GridPartitioner p(4);
  p.fit(unit_square_corners());
  EXPECT_THROW((void)p.assign(std::vector<double>{0.5}), mrsky::InvalidArgument);
}

TEST(GridPartitioner, AllAssignmentsInRange) {
  const PointSet ps = data::generate(data::Distribution::kClustered, 3000, 5, 3);
  GridPartitioner p(12);
  p.fit(ps);
  for (std::size_t i = 0; i < ps.size(); ++i) EXPECT_LT(p.assign(ps.point(i)), 12u);
}

TEST(GridPartitioner, HighDimensionalShapeSplitsFewAxes) {
  // d=10, 16 partitions: only four axes get split (2×2×2×2), rest stay 1.
  const PointSet ps = data::generate(data::Distribution::kIndependent, 500, 10, 3);
  GridPartitioner p(16);
  p.fit(ps);
  const auto& shape = p.shape();
  EXPECT_EQ(std::count(shape.begin(), shape.end(), 2u), 4);
  EXPECT_EQ(std::count(shape.begin(), shape.end(), 1u), 6);
}

TEST(GridPartitioner, SinglePartitionDegenerate) {
  GridPartitioner p(1);
  p.fit(unit_square_corners());
  EXPECT_EQ(p.assign(std::vector<double>{0.3, 0.7}), 0u);
  EXPECT_TRUE(p.prunable_partitions().empty());
}

TEST(GridPartitioner, Name) {
  GridPartitioner p(2);
  EXPECT_EQ(p.name(), "grid");
}

}  // namespace
}  // namespace mrsky::part
