// zorder_permutation pinned against the comparator sort it replaced: the
// radix sort over interleaved Morton keys must give exactly the (key, id,
// row) order of Chan's MSB-first comparison, on every shape the writer sees —
// duplicate rows, equal keys under unsorted and repeated ids, constant
// attributes, NaN and ±inf, one to three 64-bit key words.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "src/common/rng.hpp"
#include "src/dataset/block_store.hpp"
#include "src/dataset/generators.hpp"

namespace mrsky::data {
namespace {

/// The reference: 16-bit codes over each attribute's [min, max], sorted by a
/// comparator that finds the dimension whose codes differ in the highest bit
/// (dimension 0 first on a tie), then by id, then by row.
std::vector<std::size_t> reference_zorder(const PointSet& ps) {
  std::vector<std::size_t> order(ps.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  if (ps.size() <= 1) return order;
  const auto [lo, hi] = ps.attribute_bounds();
  const std::size_t dim = ps.dim();
  std::vector<std::uint32_t> q(ps.size() * dim);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    for (std::size_t a = 0; a < dim; ++a) {
      const double span = hi[a] - lo[a];
      double unit = span > 0 ? (ps.at(i, a) - lo[a]) / span : 0.0;
      if (!std::isfinite(unit)) unit = 0.0;
      unit = std::clamp(unit, 0.0, 1.0);
      q[i * dim + a] = static_cast<std::uint32_t>(unit * 65535.0);
    }
  }
  const auto less_msb = [](std::uint32_t a, std::uint32_t b) { return a < b && a < (a ^ b); };
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    const std::uint32_t* px = q.data() + x * dim;
    const std::uint32_t* py = q.data() + y * dim;
    std::size_t msd = 0;
    for (std::size_t a = 1; a < dim; ++a) {
      if (less_msb(px[msd] ^ py[msd], px[a] ^ py[a])) msd = a;
    }
    if (px[msd] != py[msd]) return px[msd] < py[msd];
    if (ps.id(x) != ps.id(y)) return ps.id(x) < ps.id(y);
    return x < y;
  });
  return order;
}

enum class Shape {
  kSpread,     ///< independent values, sequential ids
  kCoarse,     ///< values from 5 levels (many equal keys, duplicate rows), shuffled repeated ids
  kRepeated,   ///< coarse values, non-decreasing ids with repeats (no id pass)
  kSpecial,    ///< NaN and ±inf cells, one constant attribute, ids in reverse
  kDuplicate,  ///< a few distinct rows, each repeated many times under random ids
};

PointSet make_case(std::size_t n, std::size_t dim, Shape shape, std::uint64_t seed) {
  common::Rng rng(seed);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> values(n * dim);
  std::vector<PointId> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t a = 0; a < dim; ++a) {
      double v = rng.uniform();
      if (shape != Shape::kSpread) v = static_cast<double>(rng.uniform_index(5)) / 4.0;
      if (shape == Shape::kSpecial) {
        if (a == dim / 2) v = 0.75;  // constant attribute
        const std::size_t roll = rng.uniform_index(40);
        if (roll == 0) v = std::nan("");
        if (roll == 1) v = inf;
        if (roll == 2) v = -inf;
      }
      values[i * dim + a] = v;
    }
    ids[i] = static_cast<PointId>(i);
    if (shape == Shape::kCoarse) ids[i] = static_cast<PointId>(rng.uniform_index(n / 4 + 1));
    if (shape == Shape::kRepeated) ids[i] = static_cast<PointId>(i / 3);
    if (shape == Shape::kSpecial) ids[i] = static_cast<PointId>(n - i);
  }
  if (shape == Shape::kDuplicate) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t src = rng.uniform_index(4) % n;
      std::copy_n(values.begin() + static_cast<std::ptrdiff_t>(src * dim), dim,
                  values.begin() + static_cast<std::ptrdiff_t>(i * dim));
      ids[i] = static_cast<PointId>(rng.uniform_index(std::numeric_limits<PointId>::max()));
    }
  }
  return PointSet(dim, std::move(values), std::move(ids));
}

class ZOrder : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(ZOrder, MatchesComparatorSortOnEveryShape) {
  const auto [dim, n] = GetParam();
  for (const Shape shape : {Shape::kSpread, Shape::kCoarse, Shape::kRepeated, Shape::kSpecial,
                            Shape::kDuplicate}) {
    const PointSet ps = make_case(n, dim, shape, 1000 * dim + n + static_cast<std::size_t>(shape));
    EXPECT_EQ(zorder_permutation(ps), reference_zorder(ps))
        << "d=" << dim << " n=" << n << " shape=" << static_cast<int>(shape);
  }
}

INSTANTIATE_TEST_SUITE_P(
    KeyWords, ZOrder,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{4}, std::size_t{5},
                                         std::size_t{8}, std::size_t{9}, std::size_t{12}),
                       ::testing::Values(std::size_t{0}, std::size_t{1}, std::size_t{2},
                                         std::size_t{10000})),
    [](const auto& test) {
      std::string name = "d";
      name += std::to_string(std::get<0>(test.param));
      name += "_n";
      name += std::to_string(std::get<1>(test.param));
      return name;
    });

TEST(ZOrderEdges, GeneratedFamiliesMatchTheComparatorSort) {
  // Wider dims than the key-word sweep, where the spread table narrows.
  for (const std::size_t dim : {2u, 3u, 7u, 16u, 17u, 70u}) {
    const PointSet ps = generate(Distribution::kAnticorrelated, 3000, dim, 7 + dim);
    EXPECT_EQ(zorder_permutation(ps), reference_zorder(ps)) << "d=" << dim;
  }
}

TEST(ZOrderEdges, AllRowsEqualKeepIdThenRowOrder) {
  PointSet ps(3, std::vector<double>(3 * 6, 0.5), {5, 2, 5, 0, 2, 9});
  const std::vector<std::size_t> expected = {3, 1, 4, 0, 2, 5};
  EXPECT_EQ(zorder_permutation(ps), expected);
  EXPECT_EQ(reference_zorder(ps), expected);
}

}  // namespace
}  // namespace mrsky::data
