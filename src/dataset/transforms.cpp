#include "src/dataset/transforms.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
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

namespace {

/// The entries of a partial Fisher-Yates shuffle of the identity array that
/// differ from their position: an open-addressing table sized for `draws`
/// swaps, so the shuffle costs O(draws), not O(population).
class DisplacedPositions {
 public:
  explicit DisplacedPositions(std::size_t draws) {
    int bits = 4;  // at least 16 slots, at most half of them used
    while ((std::size_t{1} << bits) < 2 * draws) ++bits;
    shift_ = 64 - bits;
    mask_ = (std::size_t{1} << bits) - 1;
    slots_.assign(mask_ + 1, Slot{kEmpty, 0});
  }

  /// The value at `pos`: the one stored there, else `pos` itself.
  [[nodiscard]] std::size_t get(std::size_t pos) const {
    for (std::size_t s = home(pos);; s = (s + 1) & mask_) {
      if (slots_[s].pos == pos) return slots_[s].value;
      if (slots_[s].pos == kEmpty) return pos;
    }
  }

  void set(std::size_t pos, std::size_t value) {
    std::size_t s = home(pos);
    while (slots_[s].pos != pos && slots_[s].pos != kEmpty) s = (s + 1) & mask_;
    slots_[s] = Slot{pos, value};
  }

 private:
  static constexpr std::size_t kEmpty = ~std::size_t{0};
  struct Slot {
    std::size_t pos;
    std::size_t value;
  };
  [[nodiscard]] std::size_t home(std::size_t pos) const {
    return static_cast<std::size_t>((static_cast<std::uint64_t>(pos) * 0x9e3779b97f4a7c15ULL) >>
                                    shift_);
  }
  int shift_ = 0;
  std::size_t mask_ = 0;
  std::vector<Slot> slots_;
};

}  // namespace

PointSet sample_without_replacement(const PointSet& ps, std::size_t k, common::Rng& rng) {
  MRSKY_REQUIRE(k <= ps.size(), "sample size exceeds population");
  // Partial Fisher-Yates over a virtual index array: draw i swaps positions
  // i and j >= i, and only positions a swap moved are stored. Position i is
  // never read again, so its drawn row goes straight into a bitmap of the
  // chosen rows; read in row order, the bitmap (n / 64 words) restores input
  // order for less than sorting k indices costs.
  DisplacedPositions displaced(k);
  std::vector<std::uint64_t> chosen((ps.size() + 63) / 64, 0);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.uniform_index(ps.size() - i));
    const std::size_t row = displaced.get(j);
    chosen[row / 64] |= std::uint64_t{1} << (row % 64);
    displaced.set(j, displaced.get(i));
  }
  std::vector<std::size_t> indices;
  indices.reserve(k);
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
