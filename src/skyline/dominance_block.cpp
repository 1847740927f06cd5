#include "src/skyline/dominance_block.hpp"

#include <algorithm>
#include <atomic>
#include <bit>

#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
#define MRSKY_HAVE_AVX2_PATH 1
#include <immintrin.h>
#else
#define MRSKY_HAVE_AVX2_PATH 0
#endif

namespace mrsky::skyline {

namespace {

std::atomic<bool> g_prefilter_enabled{true};

/// Lane-wise probe of one tile, with the scalar dominates() early exits.
/// Returns the first dominating lane, or kTileWidth if none of the `valid`
/// lanes dominates p.
std::size_t first_dominator_lanewise(const double* p, const double* tile, std::size_t dim,
                                     std::size_t valid) noexcept {
  for (std::size_t lane = 0; lane < valid; ++lane) {
    bool strictly_better = false;
    bool dominates_p = true;
    for (std::size_t a = 0; a < dim; ++a) {
      const double q = tile[a * kTileWidth + lane];
      if (q > p[a]) {
        dominates_p = false;
        break;
      }
      if (q < p[a]) strictly_better = true;
    }
    if (dominates_p && strictly_better) return lane;
  }
  return kTileWidth;
}

#if MRSKY_HAVE_AVX2_PATH

// Compiled for AVX2 via the target attribute (not a TU-wide -mavx2), so the
// rest of this file — including the scalar fallback — stays baseline ISA and
// the binary remains runnable on non-AVX2 hosts.
__attribute__((target("avx2"))) TileMasks compare_block_avx2(const double* p, const double* tile,
                                                             std::size_t dim) noexcept {
  TileMasks m;
  __m256d lt_lo = _mm256_setzero_pd();
  __m256d lt_hi = _mm256_setzero_pd();
  __m256d gt_lo = _mm256_setzero_pd();
  __m256d gt_hi = _mm256_setzero_pd();
  for (std::size_t a = 0; a < dim; ++a) {
    const __m256d pa = _mm256_broadcast_sd(p + a);
    const __m256d q_lo = _mm256_loadu_pd(tile + a * kTileWidth);
    const __m256d q_hi = _mm256_loadu_pd(tile + a * kTileWidth + 4);
    lt_lo = _mm256_or_pd(lt_lo, _mm256_cmp_pd(pa, q_lo, _CMP_LT_OQ));
    lt_hi = _mm256_or_pd(lt_hi, _mm256_cmp_pd(pa, q_hi, _CMP_LT_OQ));
    gt_lo = _mm256_or_pd(gt_lo, _mm256_cmp_pd(pa, q_lo, _CMP_GT_OQ));
    gt_hi = _mm256_or_pd(gt_hi, _mm256_cmp_pd(pa, q_hi, _CMP_GT_OQ));
    m.lt = static_cast<std::uint32_t>(_mm256_movemask_pd(lt_lo)) |
           static_cast<std::uint32_t>(_mm256_movemask_pd(lt_hi)) << 4;
    m.gt = static_cast<std::uint32_t>(_mm256_movemask_pd(gt_lo)) |
           static_cast<std::uint32_t>(_mm256_movemask_pd(gt_hi)) << 4;
    if ((m.lt & m.gt) == kLaneMask) break;  // every lane incomparable: masks final
  }
  return m;
}

__attribute__((target("avx2"))) std::uint32_t dominators_in_block_avx2(
    const double* p, const double* tile, std::size_t dim) noexcept {
  std::uint32_t alive = kLaneMask;
  std::uint32_t strict = 0;
  for (std::size_t a = 0; a < dim; ++a) {
    const __m256d pa = _mm256_broadcast_sd(p + a);
    const __m256d q_lo = _mm256_loadu_pd(tile + a * kTileWidth);
    const __m256d q_hi = _mm256_loadu_pd(tile + a * kTileWidth + 4);
    const std::uint32_t lt =
        static_cast<std::uint32_t>(_mm256_movemask_pd(_mm256_cmp_pd(pa, q_lo, _CMP_LT_OQ))) |
        static_cast<std::uint32_t>(_mm256_movemask_pd(_mm256_cmp_pd(pa, q_hi, _CMP_LT_OQ))) << 4;
    const std::uint32_t gt =
        static_cast<std::uint32_t>(_mm256_movemask_pd(_mm256_cmp_pd(pa, q_lo, _CMP_GT_OQ))) |
        static_cast<std::uint32_t>(_mm256_movemask_pd(_mm256_cmp_pd(pa, q_hi, _CMP_GT_OQ))) << 4;
    alive &= ~lt;
    strict |= gt;
    if (alive == 0) return 0;
  }
  return alive & strict;
}

#endif  // MRSKY_HAVE_AVX2_PATH

bool cpu_has_avx2() noexcept {
#if MRSKY_HAVE_AVX2_PATH
  // Called from a static initializer, which may run before libgcc has read
  // the CPU model itself.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

// The path both kernels dispatch to: AVX2 iff the CPU has it and
// set_simd_enabled(false) is not in force. Resolved once at load time so a
// call pays one relaxed load; a kernel call made before this initializer
// runs reads false and takes the portable loop, which gives the same masks.
std::atomic<bool> g_avx2_active{cpu_has_avx2()};

}  // namespace

TileMasks compare_block(const double* p, const double* tile, std::size_t dim) noexcept {
#if MRSKY_HAVE_AVX2_PATH
  if (g_avx2_active.load(std::memory_order_relaxed)) return compare_block_avx2(p, tile, dim);
#endif
  return compare_block_scalar(p, tile, dim);
}

std::uint32_t dominators_in_block(const double* p, const double* tile, std::size_t dim) noexcept {
#if MRSKY_HAVE_AVX2_PATH
  if (g_avx2_active.load(std::memory_order_relaxed)) {
    return dominators_in_block_avx2(p, tile, dim);
  }
#endif
  return dominators_in_block_scalar(p, tile, dim);
}

bool compare_block_simd_active() noexcept {
  return g_avx2_active.load(std::memory_order_relaxed);
}

void set_simd_enabled(bool enabled) noexcept {
  g_avx2_active.store(enabled && cpu_has_avx2(), std::memory_order_relaxed);
}

void set_prefilter_enabled(bool enabled) noexcept {
  g_prefilter_enabled.store(enabled, std::memory_order_relaxed);
}

bool prefilter_enabled() noexcept { return g_prefilter_enabled.load(std::memory_order_relaxed); }

std::size_t first_dominator(const TiledWindow& window, std::span<const double> p,
                            SkylineStats& stats) noexcept {
  const std::size_t dim = window.dim();
  const std::size_t tiles = window.tiles();
  if (tiles == 0) return window.size();

  const std::uint32_t head_vm = window.valid_mask(0);
  const std::size_t head_valid = static_cast<std::size_t>(std::popcount(head_vm));
  const std::size_t head_lane =
      first_dominator_lanewise(p.data(), window.tile_data(0), dim, head_valid);
  if (head_lane < kTileWidth) {
    stats.dominance_tests += head_lane + 1;
    return head_lane;
  }
  stats.dominance_tests += head_valid;

  for (std::size_t t = 1; t < tiles; ++t) {
    const std::uint32_t vm = window.valid_mask(t);
    const std::uint32_t dominated_by = dominators_in_block(p.data(), window.tile_data(t), dim) & vm;
    if (dominated_by != 0) {
      const auto lane = static_cast<std::size_t>(std::countr_zero(dominated_by));
      stats.dominance_tests += lane + 1;
      return t * kTileWidth + lane;
    }
    stats.dominance_tests += static_cast<std::uint64_t>(std::popcount(vm));
  }
  return window.size();
}

void TiledWindow::begin_lane() {
  if (size_ % kTileWidth == 0) {
    // Open a fresh tile. Pad with +inf so untouched lanes read as
    // initialized doubles; callers mask them out via valid_mask anyway.
    coords_.resize((size_ / kTileWidth + 1) * dim_ * kTileWidth,
                   std::numeric_limits<double>::infinity());
  }
}

void TiledWindow::push_back(std::span<const double> p, std::size_t payload) {
  MRSKY_ASSERT(p.size() == dim_, "TiledWindow point dimension mismatch");
  begin_lane();
  double* base = coords_.data() + (size_ / kTileWidth) * dim_ * kTileWidth + size_ % kTileWidth;
  for (std::size_t a = 0; a < dim_; ++a) {
    base[a * kTileWidth] = p[a];
    min_corner_[a] = std::min(min_corner_[a], p[a]);
    max_corner_[a] = std::max(max_corner_[a], p[a]);
  }
  payloads_.push_back(payload);
  ++size_;
}

void TiledWindow::push_back(const data::PointSet& ps, std::size_t row) {
  MRSKY_ASSERT(ps.dim() == dim_, "TiledWindow point dimension mismatch");
  begin_lane();
  double* base = coords_.data() + (size_ / kTileWidth) * dim_ * kTileWidth + size_ % kTileWidth;
  ps.copy_point_to(row, base, kTileWidth);
  for (std::size_t a = 0; a < dim_; ++a) {
    min_corner_[a] = std::min(min_corner_[a], base[a * kTileWidth]);
    max_corner_[a] = std::max(max_corner_[a], base[a * kTileWidth]);
  }
  payloads_.push_back(row);
  ++size_;
}

void TiledWindow::compact(std::span<const std::uint32_t> tile_drops) {
  MRSKY_ASSERT(tile_drops.size() >= tiles(), "compact needs one drop mask per tile");
  std::size_t dst = 0;
  const std::size_t tile_stride = dim_ * kTileWidth;
  for (std::size_t src = 0; src < size_; ++src) {
    if ((tile_drops[src / kTileWidth] >> (src % kTileWidth)) & 1u) continue;
    if (dst != src) {
      const double* sb = coords_.data() + (src / kTileWidth) * tile_stride + src % kTileWidth;
      double* db = coords_.data() + (dst / kTileWidth) * tile_stride + dst % kTileWidth;
      for (std::size_t a = 0; a < dim_; ++a) db[a * kTileWidth] = sb[a * kTileWidth];
      payloads_[dst] = payloads_[src];
    }
    ++dst;
  }
  size_ = dst;
  payloads_.resize(dst);
  coords_.resize(tiles() * tile_stride);
}

}  // namespace mrsky::skyline
