#include "src/skyline/algorithms.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <ranges>
#include <vector>

#include "src/common/error.hpp"
#include "src/skyline/dominance_block.hpp"

namespace mrsky::skyline {

namespace {

// All window scans below run on the tiled kernel (dominance_block.hpp) but
// charge stats.dominance_tests exactly as the scalar loops they replaced:
// pairs up to and including the first dominator, all live pairs otherwise.
// The corner prefilter may answer a scan without touching the tiles; it then
// charges the full would-be scan so fixed-seed golden counts — and the
// simulator's time model built on them — are bit-identical to the scalar
// implementation.

/// The BNL window pass shared by bnl_skyline and the D&C base case: scans
/// `order` in sequence, dropping window points the candidate dominates and
/// rejecting candidates some window point dominates. Returns the surviving
/// source-row indices in window (insertion) order.
template <typename IndexRange>
std::vector<std::size_t> bnl_pass(const data::PointSet& ps, const IndexRange& order,
                                  SkylineStats& stats) {
  TiledWindow window(ps.dim());
  std::vector<std::uint32_t> drops;
  const bool prefilter = prefilter_enabled();
  for (const std::size_t i : order) {
    const auto p = ps.point(i);
    if (prefilter && !window.empty() && !window.maybe_dominated(p) &&
        !window.maybe_dominates(p)) {
      // Whole scan provably relation-free: the scalar loop would have
      // evaluated every window pair, found no dominator and dropped nothing.
      stats.dominance_tests += window.size();
      ++stats.prefilter_skips;
      window.push_back(ps, i);
      continue;
    }
    const std::size_t tiles = window.tiles();
    drops.assign(tiles, 0);
    bool dominated = false;
    bool any_drop = false;
    for (std::size_t t = 0; t < tiles && !dominated; ++t) {
      const std::uint32_t vm = window.valid_mask(t);
      const TileMasks m = compare_block(p.data(), window.tile_data(t), ps.dim());
      const std::uint32_t lt = m.lt & vm;
      const std::uint32_t gt = m.gt & vm;
      const std::uint32_t dominated_by = gt & ~lt;
      std::uint32_t drop = lt & ~gt;
      if (dominated_by != 0) {
        const auto k = static_cast<unsigned>(std::countr_zero(dominated_by));
        stats.dominance_tests += static_cast<std::uint64_t>(k) + 1;
        // The scalar loop stops at the dominator: lanes after it are never
        // examined this round and must survive untouched.
        drop &= (std::uint32_t{1} << k) - 1;
        dominated = true;
      } else {
        stats.dominance_tests += static_cast<std::uint64_t>(std::popcount(vm));
      }
      drops[t] = drop;
      any_drop |= drop != 0;
    }
    if (any_drop) window.compact(drops);
    if (!dominated) window.push_back(ps, i);
  }
  const auto payloads = window.payloads();
  return {payloads.begin(), payloads.end()};
}

}  // namespace

Algorithm parse_algorithm(const std::string& name) {
  if (name == "bnl") return Algorithm::kBnl;
  if (name == "sfs") return Algorithm::kSfs;
  if (name == "dc" || name == "divide-conquer") return Algorithm::kDivideConquer;
  if (name == "naive") return Algorithm::kNaive;
  MRSKY_FAIL("unknown skyline algorithm: " + name);
}

std::string to_string(Algorithm algo) {
  switch (algo) {
    case Algorithm::kBnl: return "bnl";
    case Algorithm::kSfs: return "sfs";
    case Algorithm::kDivideConquer: return "dc";
    case Algorithm::kNaive: return "naive";
  }
  return "unknown";
}

data::PointSet bnl_skyline(const data::PointSet& ps, SkylineStats* stats_out) {
  SkylineStats local_stats;
  SkylineStats& stats = stats_out != nullptr ? *stats_out : local_stats;
  stats.points_in += ps.size();

  auto window = bnl_pass(ps, std::views::iota(std::size_t{0}, ps.size()), stats);

  std::sort(window.begin(), window.end());
  stats.points_out += window.size();
  return ps.select(window);
}

data::PointSet sfs_skyline(const data::PointSet& ps, SkylineStats* stats_out) {
  SkylineStats local_stats;
  SkylineStats& stats = stats_out != nullptr ? *stats_out : local_stats;
  stats.points_in += ps.size();

  // Presort by the monotone score sum(coords): if score(a) < score(b) then b
  // cannot dominate a, so the window only ever grows.
  std::vector<std::size_t> order(ps.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<double> score(ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const auto p = ps.point(i);
    score[i] = std::accumulate(p.begin(), p.end(), 0.0);
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return score[a] < score[b]; });

  TiledWindow window(ps.dim());
  const bool prefilter = prefilter_enabled();
  for (std::size_t i : order) {
    const auto p = ps.point(i);
    if (prefilter && !window.empty() && !window.maybe_dominated(p)) {
      stats.dominance_tests += window.size();
      ++stats.prefilter_skips;
      window.push_back(ps, i);
      continue;
    }
    if (first_dominator(window, p, stats) == window.size()) window.push_back(ps, i);
  }

  const auto payloads = window.payloads();
  std::vector<std::size_t> survivors(payloads.begin(), payloads.end());
  std::sort(survivors.begin(), survivors.end());
  stats.points_out += survivors.size();
  return ps.select(survivors);
}

namespace {

// Recursive helper on index ranges; returns surviving indices in window order.
std::vector<std::size_t> dc_recurse(const data::PointSet& ps, std::vector<std::size_t> idx,
                                    SkylineStats& stats) {
  if (idx.size() <= 16) {
    // Base case: tiny BNL over the subset.
    return bnl_pass(ps, idx, stats);
  }

  const std::size_t half = idx.size() / 2;
  std::vector<std::size_t> left(idx.begin(), idx.begin() + static_cast<std::ptrdiff_t>(half));
  std::vector<std::size_t> right(idx.begin() + static_cast<std::ptrdiff_t>(half), idx.end());
  auto sky_left = dc_recurse(ps, std::move(left), stats);
  auto sky_right = dc_recurse(ps, std::move(right), stats);

  // Cross-filter: a survivor must not be dominated by any survivor of the
  // other half. The against-side is packed into tiles once per direction.
  const bool prefilter = prefilter_enabled();
  auto filter = [&](const std::vector<std::size_t>& candidates,
                    const std::vector<std::size_t>& against) {
    if (against.empty()) return candidates;
    TiledWindow aw(ps.dim());
    for (std::size_t a : against) aw.push_back(ps, a);
    std::vector<std::size_t> out;
    out.reserve(candidates.size());
    for (std::size_t c : candidates) {
      const auto p = ps.point(c);
      if (prefilter && !aw.maybe_dominated(p)) {
        stats.dominance_tests += aw.size();
        ++stats.prefilter_skips;
        out.push_back(c);
        continue;
      }
      if (first_dominator(aw, p, stats) == aw.size()) out.push_back(c);
    }
    return out;
  };
  auto kept_left = filter(sky_left, sky_right);
  auto kept_right = filter(sky_right, sky_left);
  kept_left.insert(kept_left.end(), kept_right.begin(), kept_right.end());
  return kept_left;
}

}  // namespace

data::PointSet dc_skyline(const data::PointSet& ps, SkylineStats* stats_out) {
  SkylineStats local_stats;
  SkylineStats& stats = stats_out != nullptr ? *stats_out : local_stats;
  stats.points_in += ps.size();
  std::vector<std::size_t> idx(ps.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  auto survivors = dc_recurse(ps, std::move(idx), stats);
  std::sort(survivors.begin(), survivors.end());
  stats.points_out += survivors.size();
  return ps.select(survivors);
}

data::PointSet naive_skyline(const data::PointSet& ps, SkylineStats* stats_out) {
  // Deliberately untouched by the tiled kernel: this is the O(n²) scalar
  // ground truth the block algorithms are verified against.
  SkylineStats local_stats;
  SkylineStats& stats = stats_out != nullptr ? *stats_out : local_stats;
  stats.points_in += ps.size();
  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < ps.size() && !dominated; ++j) {
      if (i == j) continue;
      ++stats.dominance_tests;
      if (dominates(ps.point(j), ps.point(i))) dominated = true;
    }
    if (!dominated) survivors.push_back(i);
  }
  stats.points_out += survivors.size();
  return ps.select(survivors);
}

data::PointSet compute_skyline(const data::PointSet& ps, Algorithm algo, SkylineStats* stats) {
  switch (algo) {
    case Algorithm::kBnl: return bnl_skyline(ps, stats);
    case Algorithm::kSfs: return sfs_skyline(ps, stats);
    case Algorithm::kDivideConquer: return dc_skyline(ps, stats);
    case Algorithm::kNaive: return naive_skyline(ps, stats);
  }
  MRSKY_FAIL("unreachable algorithm");
}

}  // namespace mrsky::skyline
