#include "src/dataset/transforms.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <vector>

#include "src/common/error.hpp"

namespace mrsky::data {

PointSet concat(const PointSet& a, const PointSet& b) {
  MRSKY_REQUIRE(a.dim() == b.dim(), "concat requires equal dimensions");
  PointSet out(a.dim());
  out.reserve(a.size() + b.size());
  for (std::size_t i = 0; i < a.size(); ++i) out.push_back(a.point(i), a.id(i));
  for (std::size_t i = 0; i < b.size(); ++i) out.push_back(b.point(i), b.id(i));
  return out;
}

PointSet sample_without_replacement(const PointSet& ps, std::size_t k, common::Rng& rng) {
  MRSKY_REQUIRE(k <= ps.size(), "sample size exceeds population");
  // Partial Fisher-Yates over an index array, then back to input order: a
  // bitmap of the chosen rows, read in row order, costs less than sorting
  // their indices and yields the same order.
  std::vector<std::size_t> indices(ps.size());
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.uniform_index(indices.size() - i));
    std::swap(indices[i], indices[j]);
  }
  std::vector<std::uint64_t> chosen((ps.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < k; ++i) {
    chosen[indices[i] / 64] |= std::uint64_t{1} << (indices[i] % 64);
  }
  indices.clear();
  for (std::size_t w = 0; w < chosen.size(); ++w) {
    for (std::uint64_t bits = chosen[w]; bits != 0; bits &= bits - 1) {
      indices.push_back(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
  return ps.select(indices);
}

PointSet affine_transform(const PointSet& ps, std::span<const double> scale,
                          std::span<const double> shift) {
  MRSKY_REQUIRE(scale.size() == ps.dim() && shift.size() == ps.dim(),
                "one scale/shift per attribute required");
  for (double s : scale) MRSKY_REQUIRE(s > 0.0, "scales must be positive (order-preserving)");
  std::vector<double> values;
  values.reserve(ps.size() * ps.dim());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    for (std::size_t a = 0; a < ps.dim(); ++a) {
      values.push_back(scale[a] * ps.at(i, a) + shift[a]);
    }
  }
  return PointSet(ps.dim(), std::move(values),
                  std::vector<PointId>(ps.ids().begin(), ps.ids().end()));
}

PointSet with_duplicates(const PointSet& ps, std::size_t copies, common::Rng& rng) {
  MRSKY_REQUIRE(!ps.empty(), "cannot duplicate from an empty set");
  PointSet out(ps.dim());
  out.reserve(ps.size() + copies);
  PointId next_id = 0;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    out.push_back(ps.point(i), ps.id(i));
    next_id = std::max(next_id, static_cast<PointId>(ps.id(i) + 1));
  }
  for (std::size_t c = 0; c < copies; ++c) {
    const std::size_t source = static_cast<std::size_t>(rng.uniform_index(ps.size()));
    out.push_back(ps.point(source), next_id++);
  }
  return out;
}

PointSet project(const PointSet& ps, std::span<const std::size_t> attributes) {
  MRSKY_REQUIRE(!attributes.empty(), "projection needs at least one attribute");
  for (std::size_t a : attributes) {
    MRSKY_REQUIRE(a < ps.dim(), "projection attribute out of range");
  }
  std::vector<double> values;
  values.reserve(ps.size() * attributes.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    for (std::size_t a : attributes) values.push_back(ps.at(i, a));
  }
  return PointSet(attributes.size(), std::move(values),
                  std::vector<PointId>(ps.ids().begin(), ps.ids().end()));
}

}  // namespace mrsky::data
