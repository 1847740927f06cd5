#include <gtest/gtest.h>

#include "src/common/error.hpp"
#include "src/common/stats.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/qws.hpp"

namespace mrsky::data {
namespace {

PointSet seed_points() {
  QwsLikeGenerator gen(4, 61);
  return gen.generate_raw(500);
}

TEST(BootstrapResampler, GeneratesRequestedCount) {
  BootstrapResampler resampler(seed_points(), 0.05);
  common::Rng rng(1);
  const PointSet out = resampler.generate(1234, rng);
  EXPECT_EQ(out.size(), 1234u);
  EXPECT_EQ(out.dim(), 4u);
}

TEST(BootstrapResampler, StaysWithinSeedRanges) {
  const PointSet seed = seed_points();
  BootstrapResampler resampler(seed, 0.2);
  common::Rng rng(2);
  const PointSet out = resampler.generate(5000, rng);
  const auto [lo, hi] = seed.attribute_bounds();
  for (std::size_t i = 0; i < out.size(); ++i) {
    for (std::size_t a = 0; a < out.dim(); ++a) {
      EXPECT_GE(out.at(i, a), lo[a]);
      EXPECT_LE(out.at(i, a), hi[a]);
    }
  }
}

TEST(BootstrapResampler, ZeroJitterReproducesSeedRows) {
  const PointSet seed = seed_points();
  BootstrapResampler resampler(seed, 0.0);
  common::Rng rng(3);
  const PointSet out = resampler.generate(200, rng);
  for (std::size_t i = 0; i < out.size(); ++i) {
    bool found = false;
    for (std::size_t s = 0; s < seed.size() && !found; ++s) {
      found = std::equal(out.point(i).begin(), out.point(i).end(), seed.point(s).begin());
    }
    EXPECT_TRUE(found);
  }
}

TEST(BootstrapResampler, NarrowJitterStaysNearASeedRow) {
  // The paper: "limited to a narrow range following the distribution" —
  // every generated point must sit within jitter of some seed row.
  const PointSet seed = seed_points();
  const double jitter = 0.05;
  BootstrapResampler resampler(seed, jitter);
  common::Rng rng(4);
  const PointSet out = resampler.generate(300, rng);
  for (std::size_t i = 0; i < out.size(); ++i) {
    bool near_seed = false;
    for (std::size_t s = 0; s < seed.size() && !near_seed; ++s) {
      bool all_close = true;
      for (std::size_t a = 0; a < out.dim() && all_close; ++a) {
        const double ref = seed.at(s, a);
        all_close = std::abs(out.at(i, a) - ref) <= std::abs(ref) * jitter + 1e-9;
      }
      near_seed = all_close;
    }
    EXPECT_TRUE(near_seed) << "row " << i << " is not near any seed row";
  }
}

TEST(BootstrapResampler, InheritsCrossAttributeCorrelation) {
  // Seed rows with strong correlation between attributes 0 and 1; marginal
  // generators would lose it, the bootstrap must keep it.
  const PointSet seed = generate(Distribution::kCorrelated, 1000, 2, 65);
  BootstrapResampler resampler(seed, 0.02);
  common::Rng rng(5);
  const PointSet out = resampler.generate(4000, rng);
  std::vector<double> xs, ys;
  for (std::size_t i = 0; i < out.size(); ++i) {
    xs.push_back(out.at(i, 0));
    ys.push_back(out.at(i, 1));
  }
  EXPECT_GT(common::pearson_correlation(xs, ys), 0.8);
}

TEST(BootstrapResampler, DeterministicUnderRng) {
  BootstrapResampler resampler(seed_points(), 0.05);
  common::Rng a(7);
  common::Rng b(7);
  EXPECT_EQ(resampler.generate(100, a), resampler.generate(100, b));
}

TEST(BootstrapResampler, Validation) {
  EXPECT_THROW(BootstrapResampler(PointSet(3), 0.05), mrsky::InvalidArgument);
  EXPECT_THROW(BootstrapResampler(seed_points(), 1.0), mrsky::InvalidArgument);
  EXPECT_THROW(BootstrapResampler(seed_points(), -0.1), mrsky::InvalidArgument);
}

}  // namespace
}  // namespace mrsky::data
