#include "src/core/dominance_analysis.hpp"

#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"

namespace mrsky::core::analysis {
namespace {

TEST(Theorem1, OriginDominatesWholeSector) {
  // s at the origin dominates the entire partition: D = 1.
  EXPECT_DOUBLE_EQ(dominance_ability_angle(0.0, 0.0, 1.0), 1.0);
}

TEST(Theorem1, FarCornerDominatesNothing) {
  // s at (2L, L) — the sector's far corner: D = (L² − L² − 0·L)/L² = 0.
  EXPECT_NEAR(dominance_ability_angle(2.0, 1.0, 1.0), 0.0, 1e-12);
}

TEST(Theorem1, ClosedFormMatchesPaperFormula) {
  const double L = 2.0;
  const double x = 1.0;
  const double y = 0.25;
  const double expected = (L * L - x * x / 4.0 - (2.0 * L - x) * y) / (L * L);
  EXPECT_DOUBLE_EQ(dominance_ability_angle(x, y, L), expected);
}

TEST(Theorem1, RejectsPointsOutsideSector) {
  EXPECT_THROW((void)dominance_ability_angle(1.0, 0.6, 1.0), mrsky::InvalidArgument);  // y > x/2
  EXPECT_THROW((void)dominance_ability_angle(-0.1, 0.0, 1.0), mrsky::InvalidArgument);
  EXPECT_THROW((void)dominance_ability_angle(2.5, 0.2, 1.0), mrsky::InvalidArgument);  // x > 2L
  EXPECT_THROW((void)dominance_ability_angle(1.0, 0.2, 0.0), mrsky::InvalidArgument);  // L = 0
}

TEST(GridAbility, CornerCases) {
  EXPECT_DOUBLE_EQ(dominance_ability_grid(0.0, 0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(dominance_ability_grid(1.0, 1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(dominance_ability_grid(0.5, 0.5, 1.0), 0.25);
}

TEST(GridAbility, RejectsOutsideCell) {
  EXPECT_THROW((void)dominance_ability_grid(1.5, 0.5, 1.0), mrsky::InvalidArgument);
  EXPECT_THROW((void)dominance_ability_grid(0.5, -0.1, 1.0), mrsky::InvalidArgument);
}

TEST(MonteCarlo, AngleMatchesClosedForm) {
  common::Rng rng(42);
  const double L = 1.0;
  for (const auto& [x, y] : std::vector<std::pair<double, double>>{
           {0.2, 0.05}, {0.5, 0.2}, {1.0, 0.3}, {1.5, 0.5}}) {
    const double closed = dominance_ability_angle(x, y, L);
    const double estimated = monte_carlo_angle(x, y, L, 200000, rng);
    EXPECT_NEAR(estimated, closed, 0.01) << "x=" << x << " y=" << y;
  }
}

TEST(MonteCarlo, GridMatchesClosedForm) {
  common::Rng rng(43);
  const double L = 1.0;
  for (const auto& [x, y] : std::vector<std::pair<double, double>>{
           {0.1, 0.1}, {0.5, 0.25}, {0.8, 0.4}}) {
    const double closed = dominance_ability_grid(x, y, L);
    const double estimated = monte_carlo_grid(x, y, L, 200000, rng);
    EXPECT_NEAR(estimated, closed, 0.01);
  }
}

TEST(MonteCarlo, RejectsZeroSamples) {
  common::Rng rng(1);
  EXPECT_THROW((void)monte_carlo_angle(0.5, 0.1, 1.0, 0, rng), mrsky::InvalidArgument);
  EXPECT_THROW((void)monte_carlo_grid(0.5, 0.1, 1.0, 0, rng), mrsky::InvalidArgument);
}

// Theorem 2 as a property sweep: for points in the overlap of both
// partitions' validity regions (x <= L so grid applies, y <= x/2 so angle
// applies), the angle-vs-grid gap respects the paper's lower bound.
TEST(Theorem2, LowerBoundHoldsAcrossSweep) {
  const double L = 1.0;
  for (double x = 0.0; x <= L; x += 0.05) {
    for (double y = 0.0; y <= x / 2.0 + 1e-12; y += 0.025) {
      const double yy = std::min(y, x / 2.0);
      const double delta =
          dominance_ability_angle(x, yy, L) - dominance_ability_grid(x, yy, L);
      EXPECT_GE(delta + 1e-12, delta_lower_bound(x, L)) << "x=" << x << " y=" << yy;
    }
  }
}

TEST(Theorem2, AngleAlwaysAtLeastGridInOverlap) {
  common::Rng rng(7);
  for (int i = 0; i < 2000; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    const double y = rng.uniform(0.0, x / 2.0);
    const double delta = dominance_ability_angle(x, y, 1.0) - dominance_ability_grid(x, y, 1.0);
    EXPECT_GE(delta, -1e-12);
  }
}

TEST(Theorem2, BoundIsTightAtYEqualsHalfX) {
  // The proof's inequality chain becomes equality at y = x/2.
  const double L = 1.0;
  for (double x = 0.1; x <= 1.0; x += 0.1) {
    const double y = x / 2.0;
    const double delta = dominance_ability_angle(x, y, L) - dominance_ability_grid(x, y, L);
    EXPECT_NEAR(delta, delta_lower_bound(x, L), 1e-12);
  }
}

TEST(Theorem2, LowerBoundPeaksAtL) {
  // d/dx [x/(2L²)(L − x/2)] = 0 at x = L.
  const double L = 1.0;
  EXPECT_GT(delta_lower_bound(1.0, L), delta_lower_bound(0.5, L));
  EXPECT_GT(delta_lower_bound(1.0, L), delta_lower_bound(1.5, L));
}

}  // namespace
}  // namespace mrsky::core::analysis
