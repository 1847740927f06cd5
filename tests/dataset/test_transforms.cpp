#include "src/dataset/transforms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <unordered_set>
#include <vector>

#include "src/common/error.hpp"
#include "src/dataset/generators.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/verify.hpp"

namespace mrsky::data {
namespace {

TEST(Concat, PreservesOrderAndIds) {
  PointSet a(2, {1.0, 2.0}, {5u});
  PointSet b(2, {3.0, 4.0, 5.0, 6.0}, {8u, 9u});
  const PointSet joined = concat(a, b);
  ASSERT_EQ(joined.size(), 3u);
  EXPECT_EQ(joined.id(0), 5u);
  EXPECT_EQ(joined.id(2), 9u);
  EXPECT_DOUBLE_EQ(joined.at(1, 1), 4.0);
}

TEST(Concat, DimensionMismatchThrows) {
  PointSet a(2, {1.0, 2.0});
  PointSet b(3, {1.0, 2.0, 3.0});
  EXPECT_THROW((void)concat(a, b), mrsky::InvalidArgument);
}

TEST(Concat, EmptyOperandsWork) {
  PointSet a(2);
  PointSet b(2, {1.0, 2.0});
  EXPECT_EQ(concat(a, b).size(), 1u);
  EXPECT_EQ(concat(b, a).size(), 1u);
}

TEST(Sample, ReturnsExactlyK) {
  const PointSet ps = generate(Distribution::kIndependent, 100, 2, 1);
  common::Rng rng(2);
  EXPECT_EQ(sample_without_replacement(ps, 17, rng).size(), 17u);
}

TEST(Sample, NoDuplicateIds) {
  const PointSet ps = generate(Distribution::kIndependent, 200, 2, 3);
  common::Rng rng(4);
  const PointSet sampled = sample_without_replacement(ps, 150, rng);
  std::unordered_set<PointId> ids(sampled.ids().begin(), sampled.ids().end());
  EXPECT_EQ(ids.size(), 150u);
}

TEST(Sample, FullSampleIsIdentity) {
  const PointSet ps = generate(Distribution::kIndependent, 50, 3, 5);
  common::Rng rng(6);
  EXPECT_EQ(sample_without_replacement(ps, ps.size(), rng), ps);
}

TEST(Sample, OversampleThrows) {
  const PointSet ps = generate(Distribution::kIndependent, 10, 2, 7);
  common::Rng rng(8);
  EXPECT_THROW((void)sample_without_replacement(ps, 11, rng), mrsky::InvalidArgument);
}

TEST(Sample, DeterministicUnderSeed) {
  const PointSet ps = generate(Distribution::kIndependent, 100, 2, 9);
  common::Rng rng_a(10);
  common::Rng rng_b(10);
  EXPECT_EQ(sample_without_replacement(ps, 30, rng_a),
            sample_without_replacement(ps, 30, rng_b));
}

/// The sampler's reference: partial Fisher-Yates over an index array, then a
/// sort back into row order.
std::vector<PointId> sorted_fisher_yates_ids(const PointSet& ps, std::size_t k,
                                             common::Rng& rng) {
  std::vector<std::size_t> indices(ps.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.uniform_index(indices.size() - i));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  std::sort(indices.begin(), indices.end());
  std::vector<PointId> ids;
  for (std::size_t i : indices) ids.push_back(ps.id(i));
  return ids;
}

TEST(Sample, MatchesSortedPartialFisherYates) {
  for (const std::size_t n : {1, 63, 64, 65, 130, 5000}) {
    const PointSet ps = generate(Distribution::kIndependent, n, 2, n);
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, n / 3, n - 1, n}) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        common::Rng a(seed);
        common::Rng b(seed);
        const PointSet sample = sample_without_replacement(ps, k, a);
        const std::vector<PointId> ids(sample.ids().begin(), sample.ids().end());
        EXPECT_EQ(ids, sorted_fisher_yates_ids(ps, k, b))
            << "n=" << n << " k=" << k << " seed=" << seed;
      }
    }
  }
}

TEST(AffineTransform, AppliesPerAttribute) {
  PointSet ps(2, {1.0, 2.0});
  const std::vector<double> scale = {2.0, 10.0};
  const std::vector<double> shift = {1.0, -5.0};
  const PointSet out = affine_transform(ps, scale, shift);
  EXPECT_DOUBLE_EQ(out.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(out.at(0, 1), 15.0);
}

TEST(AffineTransform, RejectsNonPositiveScale) {
  PointSet ps(1, {1.0});
  const std::vector<double> zero = {0.0};
  const std::vector<double> shift = {0.0};
  EXPECT_THROW((void)affine_transform(ps, zero, shift), mrsky::InvalidArgument);
}

TEST(AffineTransform, RejectsWrongWidth) {
  PointSet ps(2, {1.0, 2.0});
  const std::vector<double> scale = {1.0};
  const std::vector<double> shift = {0.0};
  EXPECT_THROW((void)affine_transform(ps, scale, shift), mrsky::InvalidArgument);
}

// Metamorphic property: the skyline is invariant under positive affine maps.
TEST(AffineTransform, SkylineInvariance) {
  const PointSet ps = generate(Distribution::kAnticorrelated, 400, 3, 11);
  const std::vector<double> scale = {3.0, 0.5, 42.0};
  const std::vector<double> shift = {100.0, -7.0, 0.001};
  const PointSet mapped = affine_transform(ps, scale, shift);
  EXPECT_TRUE(skyline::same_ids(skyline::bnl_skyline(ps), skyline::bnl_skyline(mapped)));
}

TEST(WithDuplicates, AddsRequestedCopies) {
  const PointSet ps = generate(Distribution::kIndependent, 20, 2, 13);
  common::Rng rng(14);
  const PointSet out = with_duplicates(ps, 15, rng);
  EXPECT_EQ(out.size(), 35u);
}

TEST(WithDuplicates, FreshIdsAreUnique) {
  const PointSet ps = generate(Distribution::kIndependent, 20, 2, 15);
  common::Rng rng(16);
  const PointSet out = with_duplicates(ps, 30, rng);
  std::unordered_set<PointId> ids(out.ids().begin(), out.ids().end());
  EXPECT_EQ(ids.size(), out.size());
}

TEST(WithDuplicates, EmptySourceThrows) {
  common::Rng rng(17);
  EXPECT_THROW((void)with_duplicates(PointSet(2), 3, rng), mrsky::InvalidArgument);
}

// Duplicate-injection property: every copy of an undominated point joins the
// skyline, so the skyline cannot shrink and each skyline member's duplicates
// are all present.
TEST(WithDuplicates, SkylineAbsorbsDuplicates) {
  const PointSet ps = generate(Distribution::kIndependent, 200, 2, 19);
  common::Rng rng(20);
  const PointSet noisy = with_duplicates(ps, 100, rng);
  const auto sky_before = skyline::bnl_skyline(ps);
  const auto sky_after = skyline::bnl_skyline(noisy);
  EXPECT_GE(sky_after.size(), sky_before.size());
  // Original skyline ids all survive (duplicates never dominate anyone).
  std::unordered_set<PointId> after_ids(sky_after.ids().begin(), sky_after.ids().end());
  for (PointId id : sky_before.ids()) EXPECT_TRUE(after_ids.contains(id));
}

}  // namespace
}  // namespace mrsky::data
