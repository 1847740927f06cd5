// Batched, cache-tiled dominance kernel (DESIGN.md decision 9).
//
// The scalar compare(span, span) in dominance.hpp evaluates one pair at a
// time through an index-indirected load — fine for correctness, hostile to
// the hardware: every window probe is a dependent load plus two unpredictable
// branches. This layer restructures the hot path:
//
//   * TiledWindow keeps the BNL/SFS survivor set as contiguous
//     attribute-major tiles of kTileWidth points (SoA within a tile), so one
//     candidate is tested against a whole tile with branch-light min/max-mask
//     loops the compiler can auto-vectorize. Every x86 GCC/Clang build also
//     compiles an AVX2 variant, selected per process via cpuid; the portable
//     tile loop is always available as the fallback.
//   * compare_block(p, tile, dim) returns per-lane `lt`/`gt` bitmasks from
//     which every DomRelation is derived: lane j has p ≺ q_j iff
//     lt_j & ~gt_j, p ≻ q_j iff gt_j & ~lt_j, equality iff neither bit.
//   * The window carries running min/max corners; a candidate that is
//     provably incomparable-or-better against the whole window skips the tile
//     scan entirely (SkylineStats::prefilter_skips).
//
// Counter policy: the kernel is a wall-clock optimisation only. Every caller
// charges SkylineStats::dominance_tests exactly as the scalar algorithm would
// have (pairs up to and including the first dominator, all pairs otherwise),
// including scans the prefilter answered — the cluster simulator turns those
// counters into simulated Hadoop time and must not see the speedup.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/common/error.hpp"
#include "src/dataset/point_set.hpp"
#include "src/skyline/dominance.hpp"

namespace mrsky::skyline {

/// Lanes per tile. 8 doubles = two AVX2 vectors per attribute.
inline constexpr std::size_t kTileWidth = 8;

/// All kTileWidth lane bits set.
inline constexpr std::uint32_t kLaneMask = (std::uint32_t{1} << kTileWidth) - 1;

/// Per-lane comparison bits for one candidate-vs-tile evaluation.
/// Bit j of `lt`: p[a] < q_j[a] for some attribute a; `gt` likewise with >.
struct TileMasks {
  std::uint32_t lt = 0;
  std::uint32_t gt = 0;
};

/// Portable tile kernel: always available, auto-vectorizable, and the
/// reference the SIMD path is tested against. Stops descending attributes
/// once every lane is already incomparable (both bits set) — at that point
/// further attributes cannot change either mask, so results stay exact.
[[nodiscard]] inline TileMasks compare_block_scalar(const double* p, const double* tile,
                                                    std::size_t dim) noexcept {
  std::uint32_t lt = 0;
  std::uint32_t gt = 0;
  for (std::size_t a = 0; a < dim; ++a) {
    const double pa = p[a];
    const double* q = tile + a * kTileWidth;
    for (std::size_t lane = 0; lane < kTileWidth; ++lane) {
      lt |= static_cast<std::uint32_t>(pa < q[lane]) << lane;
      gt |= static_cast<std::uint32_t>(pa > q[lane]) << lane;
    }
    if ((lt & gt) == kLaneMask) break;
  }
  return {lt, gt};
}

/// Portable one-directional kernel: bitmask of lanes whose point dominates
/// `p`. A lane stays "alive" while its point is <= p in every attribute seen
/// so far; the attribute loop stops as soon as no lane is alive. Exact: a
/// dead lane can never be a dominator, and +inf tile padding dies on the
/// first attribute.
[[nodiscard]] inline std::uint32_t dominators_in_block_scalar(const double* p, const double* tile,
                                                              std::size_t dim) noexcept {
  std::uint32_t alive = kLaneMask;
  std::uint32_t strict = 0;
  for (std::size_t a = 0; a < dim; ++a) {
    const double pa = p[a];
    const double* q = tile + a * kTileWidth;
    std::uint32_t lt = 0;
    std::uint32_t gt = 0;
    for (std::size_t lane = 0; lane < kTileWidth; ++lane) {
      lt |= static_cast<std::uint32_t>(pa < q[lane]) << lane;
      gt |= static_cast<std::uint32_t>(pa > q[lane]) << lane;
    }
    alive &= ~lt;
    strict |= gt;
    if (alive == 0) return 0;
  }
  return alive & strict;
}

/// Tests candidate `p` (dim contiguous doubles) against one attribute-major
/// tile of kTileWidth points. Dispatches to AVX2 when the build is x86
/// GCC/Clang and the CPU supports it; otherwise the portable tile loop.
[[nodiscard]] TileMasks compare_block(const double* p, const double* tile,
                                      std::size_t dim) noexcept;

/// Bitmask of tile lanes that dominate `p` (runtime-dispatched like
/// compare_block). The fast path for the one-directional window probes in
/// SFS, the D&C cross-filter, and the SFS-style merge scans.
[[nodiscard]] std::uint32_t dominators_in_block(const double* p, const double* tile,
                                                std::size_t dim) noexcept;

/// True iff compare_block and dominators_in_block dispatch to the AVX2 path
/// at runtime (see set_simd_enabled).
[[nodiscard]] bool compare_block_simd_active() noexcept;

/// Test hook: false sends compare_block and dominators_in_block to the
/// portable tile loop process-wide, so one binary can check both paths end
/// to end; true (the default) restores AVX2 where the CPU has it. Both paths
/// return identical masks, so flipping this is safe between skyline calls.
void set_simd_enabled(bool enabled) noexcept;

/// Bench/test hook: disable the min/max-corner prefilter globally (default
/// on). The prefilter never changes results or dominance_tests, only wall
/// clock, so flipping this is safe at any point between skyline calls.
void set_prefilter_enabled(bool enabled) noexcept;
[[nodiscard]] bool prefilter_enabled() noexcept;

/// The skyline window as contiguous attribute-major tiles.
///
/// Lane i lives in tile i / kTileWidth at lane offset i % kTileWidth; within
/// a tile, attribute a's kTileWidth values are contiguous at
/// tile_data(t)[a * kTileWidth + lane]. Each lane carries an opaque payload
/// (the algorithms store source-row indices). Removal is stable in-place
/// compaction, so window order — and therefore every early-exit position and
/// dominance_tests count — matches the scalar algorithms exactly.
class TiledWindow {
 public:
  explicit TiledWindow(std::size_t dim)
      : dim_(dim),
        min_corner_(dim, std::numeric_limits<double>::infinity()),
        max_corner_(dim, -std::numeric_limits<double>::infinity()) {
    MRSKY_ASSERT(dim >= 1, "TiledWindow needs at least one attribute");
  }

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t tiles() const noexcept {
    return (size_ + kTileWidth - 1) / kTileWidth;
  }

  void clear() noexcept {
    size_ = 0;
    payloads_.clear();
    min_corner_.assign(dim_, std::numeric_limits<double>::infinity());
    max_corner_.assign(dim_, -std::numeric_limits<double>::infinity());
  }

  /// Base of tile t: dim * kTileWidth contiguous doubles.
  [[nodiscard]] const double* tile_data(std::size_t t) const noexcept {
    return coords_.data() + t * dim_ * kTileWidth;
  }

  /// Bitmask of lanes in tile t that hold live points.
  [[nodiscard]] std::uint32_t valid_mask(std::size_t t) const noexcept {
    const std::size_t valid =
        size_ - t * kTileWidth >= kTileWidth ? kTileWidth : size_ - t * kTileWidth;
    return (std::uint32_t{1} << valid) - 1;
  }

  [[nodiscard]] std::size_t payload(std::size_t lane) const noexcept { return payloads_[lane]; }
  [[nodiscard]] std::span<const std::size_t> payloads() const noexcept { return payloads_; }

  void push_back(std::span<const double> p, std::size_t payload);
  /// Scatters ps.point(row) straight from row-major storage into the tile.
  void push_back(const data::PointSet& ps, std::size_t row);

  /// Componentwise min/max over every point ever pushed. Drops leave the
  /// corners stale, but only in the conservative direction (min too low, max
  /// too high), which keeps both prefilter answers sound.
  [[nodiscard]] std::span<const double> min_corner() const noexcept { return min_corner_; }
  [[nodiscard]] std::span<const double> max_corner() const noexcept { return max_corner_; }

  /// False iff no window point can possibly dominate p: some attribute of p
  /// is strictly below the window's min corner there.
  [[nodiscard]] bool maybe_dominated(std::span<const double> p) const noexcept {
    for (std::size_t a = 0; a < dim_; ++a) {
      if (p[a] < min_corner_[a]) return false;
    }
    return true;
  }

  /// False iff p can possibly dominate no window point: some attribute of p
  /// is strictly above the window's max corner there.
  [[nodiscard]] bool maybe_dominates(std::span<const double> p) const noexcept {
    for (std::size_t a = 0; a < dim_; ++a) {
      if (p[a] > max_corner_[a]) return false;
    }
    return true;
  }

  /// Stable in-place removal: drops every lane whose bit is set in
  /// tile_drops[tile]; surviving lanes keep their relative order.
  void compact(std::span<const std::uint32_t> tile_drops);

 private:
  void begin_lane();

  std::size_t dim_;
  std::size_t size_ = 0;
  std::vector<double> coords_;          // tiles() * dim * kTileWidth
  std::vector<std::size_t> payloads_;   // one per live lane
  std::vector<double> min_corner_;
  std::vector<double> max_corner_;
};

/// Window position (lane index across tiles) of the first point of `window`
/// that dominates `p`, or window.size() if none does. Charges
/// stats.dominance_tests like the scalar `for (w : window) if (dominates(w,
/// p)) break;` loop: positions up to and including the dominator, else every
/// point.
///
/// Hybrid schedule: dominated candidates almost always fall to the head of
/// the window (best points first under SFS order, earliest survivors under
/// BNL, a maintained skyline's loaded F), where per-pair early exit beats a
/// full-depth tile — so the head tile is probed lane-wise; the tail, reached
/// mostly by near-survivors whose lanes are incomparable, runs on
/// dominators_in_block.
[[nodiscard]] std::size_t first_dominator(const TiledWindow& window, std::span<const double> p,
                                          SkylineStats& stats) noexcept;

}  // namespace mrsky::skyline
