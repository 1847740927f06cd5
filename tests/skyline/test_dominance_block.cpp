#include "src/skyline/dominance_block.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/mr_skyline.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/normalize.hpp"
#include "src/dataset/qws.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/dominance.hpp"

namespace mrsky::skyline {
namespace {

using data::PointSet;

// ---- Reference semantics -----------------------------------------------

/// Mask-level ground truth: one scalar compare() per lane.
TileMasks reference_masks(const double* p, const double* tile, std::size_t dim) {
  TileMasks m;
  for (std::size_t lane = 0; lane < kTileWidth; ++lane) {
    std::uint32_t lt = 0;
    std::uint32_t gt = 0;
    for (std::size_t a = 0; a < dim; ++a) {
      const double q = tile[a * kTileWidth + lane];
      if (p[a] < q) lt = 1;
      if (p[a] > q) gt = 1;
    }
    m.lt |= lt << lane;
    m.gt |= gt << lane;
  }
  return m;
}

/// Packs `points` (dim-major rows, kTileWidth of them) into one tile.
std::vector<double> pack_tile(const std::vector<std::vector<double>>& points, std::size_t dim) {
  std::vector<double> tile(dim * kTileWidth, std::numeric_limits<double>::infinity());
  for (std::size_t lane = 0; lane < points.size(); ++lane) {
    for (std::size_t a = 0; a < dim; ++a) tile[a * kTileWidth + lane] = points[lane][a];
  }
  return tile;
}

DomRelation relation_from_masks(const TileMasks& m, std::size_t lane) {
  const bool lt = (m.lt >> lane) & 1u;
  const bool gt = (m.gt >> lane) & 1u;
  if (lt && !gt) return DomRelation::kDominates;
  if (gt && !lt) return DomRelation::kDominatedBy;
  if (!lt && !gt) return DomRelation::kEqual;
  return DomRelation::kIncomparable;
}

struct KernelCase {
  const char* name;
  PointSet ps;
};

std::vector<KernelCase> kernel_cases() {
  std::vector<KernelCase> cases;
  cases.push_back({"random_uniform", data::generate(data::Distribution::kIndependent, 600, 5, 11)});
  cases.push_back(
      {"anticorrelated", data::generate(data::Distribution::kAnticorrelated, 600, 4, 12)});
  // Duplicate-heavy: every coordinate snapped to a 4-level grid, so equal
  // points and per-attribute ties (neither lt nor gt) are everywhere.
  PointSet dup(3);
  common::Rng rng(13);
  for (std::size_t i = 0; i < 600; ++i) {
    std::vector<double> p(3);
    for (auto& v : p) v = std::floor(rng.uniform() * 4.0) / 4.0;
    dup.push_back(p);
  }
  cases.push_back({"duplicate_heavy", std::move(dup)});
  return cases;
}

// ---- compare_block / dominators_in_block vs scalar compare --------------

TEST(DominanceBlock, MasksMatchScalarCompareOnRandomTiles) {
  for (const auto& kc : kernel_cases()) {
    const std::size_t dim = kc.ps.dim();
    common::Rng rng(17);
    for (std::size_t trial = 0; trial < 200; ++trial) {
      std::vector<std::vector<double>> pts(kTileWidth);
      for (auto& q : pts) {
        const auto row = kc.ps.point(rng.uniform_index(kc.ps.size()));
        q.assign(row.begin(), row.end());
      }
      const auto tile = pack_tile(pts, dim);
      const auto p = kc.ps.point(rng.uniform_index(kc.ps.size()));

      const TileMasks got = compare_block(p.data(), tile.data(), dim);
      const TileMasks want = reference_masks(p.data(), tile.data(), dim);
      ASSERT_EQ(got.lt, want.lt) << kc.name << " trial " << trial;
      ASSERT_EQ(got.gt, want.gt) << kc.name << " trial " << trial;

      // Every DomRelation must be recoverable from the masks.
      std::uint32_t dominators = 0;
      for (std::size_t lane = 0; lane < kTileWidth; ++lane) {
        ASSERT_EQ(relation_from_masks(got, lane), compare(p, pts[lane]))
            << kc.name << " trial " << trial << " lane " << lane;
        if (dominates(pts[lane], p)) dominators |= std::uint32_t{1} << lane;
      }
      ASSERT_EQ(dominators_in_block(p.data(), tile.data(), dim), dominators)
          << kc.name << " trial " << trial;
    }
  }
}

TEST(DominanceBlock, DispatchAgreesWithScalarTileKernel) {
  // Whatever path compare_block dispatches to (AVX2 in every x86 GCC/Clang
  // build on a capable CPU, the portable loop otherwise) must be
  // bit-identical to the always-available portable tile kernel.
  const auto ps = data::generate(data::Distribution::kAnticorrelated, 400, 7, 21);
  common::Rng rng(22);
  for (std::size_t trial = 0; trial < 300; ++trial) {
    std::vector<std::vector<double>> pts(kTileWidth);
    for (auto& q : pts) {
      const auto row = ps.point(rng.uniform_index(ps.size()));
      q.assign(row.begin(), row.end());
    }
    const auto tile = pack_tile(pts, ps.dim());
    const auto p = ps.point(rng.uniform_index(ps.size()));
    const TileMasks a = compare_block(p.data(), tile.data(), ps.dim());
    const TileMasks b = compare_block_scalar(p.data(), tile.data(), ps.dim());
    ASSERT_EQ(a.lt, b.lt);
    ASSERT_EQ(a.gt, b.gt);
    ASSERT_EQ(dominators_in_block(p.data(), tile.data(), ps.dim()),
              dominators_in_block_scalar(p.data(), tile.data(), ps.dim()));
  }
}

TEST(DominanceBlock, InfinityPaddingNeverDominates) {
  // Unused lanes are padded with +inf; they must read as dominated-by-p in
  // compare_block (gt without lt) and never as dominators of p.
  const std::size_t dim = 4;
  std::vector<std::vector<double>> pts = {{0.3, 0.4, 0.5, 0.6}};  // one live lane
  const auto tile = pack_tile(pts, dim);
  const std::vector<double> p = {0.2, 0.2, 0.2, 0.2};
  const TileMasks m = compare_block(p.data(), tile.data(), dim);
  EXPECT_EQ(m.lt & ~std::uint32_t{1}, kLaneMask & ~std::uint32_t{1});
  EXPECT_EQ(dominators_in_block(p.data(), tile.data(), dim), 0u);
}

// ---- TiledWindow --------------------------------------------------------

TEST(TiledWindow, LayoutRoundTripsAcrossTileBoundaries) {
  for (const std::size_t n : {1u, 7u, 8u, 9u, 16u, 27u}) {  // n % kTileWidth != 0 included
    const auto ps = data::generate(data::Distribution::kIndependent, n, 3, 31);
    TiledWindow w(3);
    for (std::size_t i = 0; i < n; ++i) w.push_back(ps, i);
    ASSERT_EQ(w.size(), n);
    ASSERT_EQ(w.tiles(), (n + kTileWidth - 1) / kTileWidth);
    for (std::size_t i = 0; i < n; ++i) {
      const auto p = ps.point(i);
      const double* tile = w.tile_data(i / kTileWidth);
      for (std::size_t a = 0; a < 3; ++a) {
        ASSERT_EQ(tile[a * kTileWidth + i % kTileWidth], p[a]) << "point " << i;
      }
      ASSERT_EQ(w.payload(i), i);
    }
    // The last tile's invalid lanes are +inf and masked out.
    const std::uint32_t vm = w.valid_mask(w.tiles() - 1);
    ASSERT_EQ(std::popcount(vm), static_cast<int>(n - (w.tiles() - 1) * kTileWidth));
  }
}

TEST(TiledWindow, CompactIsStableAndPreservesCoordinates) {
  const std::size_t n = 21;
  const auto ps = data::generate(data::Distribution::kIndependent, n, 4, 41);
  TiledWindow w(4);
  for (std::size_t i = 0; i < n; ++i) w.push_back(ps, i);

  // Drop a pattern crossing tile boundaries: every third point.
  std::vector<std::uint32_t> drops(w.tiles(), 0);
  std::vector<std::size_t> expect;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 3 == 1) {
      drops[i / kTileWidth] |= std::uint32_t{1} << (i % kTileWidth);
    } else {
      expect.push_back(i);
    }
  }
  w.compact(drops);

  ASSERT_EQ(w.size(), expect.size());
  for (std::size_t k = 0; k < expect.size(); ++k) {
    ASSERT_EQ(w.payload(k), expect[k]);  // stable: survivors keep their order
    const auto p = ps.point(expect[k]);
    const double* tile = w.tile_data(k / kTileWidth);
    for (std::size_t a = 0; a < 4; ++a) {
      ASSERT_EQ(tile[a * kTileWidth + k % kTileWidth], p[a]);
    }
  }
}

TEST(TiledWindow, CornerPrefilterAnswersAreSound) {
  const auto ps = data::generate(data::Distribution::kIndependent, 200, 3, 51);
  TiledWindow w(3);
  for (std::size_t i = 0; i < 64; ++i) w.push_back(ps, i);
  for (std::size_t c = 64; c < 200; ++c) {
    const auto p = ps.point(c);
    bool any_dominator = false;
    bool any_dominated = false;
    for (std::size_t i = 0; i < 64; ++i) {
      any_dominator |= dominates(ps.point(i), p);
      any_dominated |= dominates(p, ps.point(i));
    }
    // maybe_* == false must imply the relation is impossible (never the
    // converse: the corners are an over-approximation of the window).
    if (!w.maybe_dominated(p)) {
      EXPECT_FALSE(any_dominator) << "candidate " << c;
    }
    if (!w.maybe_dominates(p)) {
      EXPECT_FALSE(any_dominated) << "candidate " << c;
    }
  }
}

// ---- Counter invariance vs the pre-kernel scalar implementation ---------

PointSet qws_like(std::size_t n, std::size_t dim, std::uint64_t seed) {
  data::QwsLikeGenerator gen(dim, seed);
  return data::normalize_min_max(gen.generate_oriented(n));
}

struct GoldenRow {
  const char* name;
  PointSet ps;
  std::uint64_t bnl, sfs, dc, naive;  // dominance_tests
  std::size_t out;                    // skyline size
};

TEST(DominanceBlockGolden, CountersMatchScalarImplementation) {
  // Golden dominance_tests recorded from the scalar implementation (commit
  // 10f3a05) on fixed seeds. The cluster simulator's time model consumes
  // these counters, so the tiled kernel must reproduce them bit-exactly —
  // not merely return the same skyline.
  std::vector<GoldenRow> rows;
  rows.push_back({"qws_2000_4", qws_like(2000, 4, 2012), 23753, 12131, 63062, 416747, 91});
  rows.push_back({"qws_1500_9", qws_like(1500, 9, 2012), 72319, 29666, 193303, 556147, 219});
  rows.push_back({"anti_1200_6", data::generate(data::Distribution::kAnticorrelated, 1200, 6, 7),
                  227821, 153297, 548783, 812824, 536});
  rows.push_back({"corr_2500_5", data::generate(data::Distribution::kCorrelated, 2500, 5, 99),
                  2662, 2499, 5785, 66043, 1});

  for (const auto& row : rows) {
    const std::uint64_t expected[] = {row.bnl, row.sfs, row.dc, row.naive};
    const Algorithm algos[] = {Algorithm::kBnl, Algorithm::kSfs, Algorithm::kDivideConquer,
                               Algorithm::kNaive};
    for (std::size_t k = 0; k < 4; ++k) {
      SkylineStats stats;
      const PointSet sky = compute_skyline(row.ps, algos[k], &stats);
      EXPECT_EQ(stats.dominance_tests, expected[k])
          << row.name << " " << to_string(algos[k]);
      EXPECT_EQ(sky.size(), row.out) << row.name << " " << to_string(algos[k]);
    }
  }
}

// ---- Cross-algorithm and prefilter on/off byte-identity -----------------

void expect_identical(const PointSet& a, const PointSet& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_EQ(a.dim(), b.dim()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.id(i), b.id(i)) << what << " row " << i;
    const auto pa = a.point(i);
    const auto pb = b.point(i);
    for (std::size_t d = 0; d < a.dim(); ++d) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(pa[d]), std::bit_cast<std::uint64_t>(pb[d]))
          << what << " row " << i << " attr " << d;
    }
  }
}

TEST(DominanceBlock, AllAlgorithmsAgreeWithNaiveGroundTruth) {
  const auto ps = qws_like(1200, 6, 77);
  const PointSet truth = naive_skyline(ps);
  for (auto algo : {Algorithm::kBnl, Algorithm::kSfs, Algorithm::kDivideConquer}) {
    const PointSet sky = compute_skyline(ps, algo);
    expect_identical(sky, truth, to_string(algo).c_str());
  }
}

TEST(DominanceBlock, PrefilterToggleChangesNeitherResultsNorCounters) {
  const auto ps = qws_like(1500, 5, 123);
  for (auto algo : {Algorithm::kBnl, Algorithm::kSfs, Algorithm::kDivideConquer}) {
    SkylineStats on_stats;
    SkylineStats off_stats;
    set_prefilter_enabled(true);
    const PointSet with = compute_skyline(ps, algo, &on_stats);
    set_prefilter_enabled(false);
    const PointSet without = compute_skyline(ps, algo, &off_stats);
    set_prefilter_enabled(true);
    expect_identical(with, without, to_string(algo).c_str());
    EXPECT_EQ(on_stats.dominance_tests, off_stats.dominance_tests) << to_string(algo);
    EXPECT_EQ(off_stats.prefilter_skips, 0u) << to_string(algo);
  }
  // On this workload the filter must actually engage somewhere, otherwise the
  // toggle test is vacuous. (D&C's small cross-filter windows guarantee it.)
  SkylineStats stats;
  const PointSet dc = compute_skyline(ps, Algorithm::kDivideConquer, &stats);
  EXPECT_FALSE(dc.empty());
  EXPECT_GT(stats.prefilter_skips, 0u);
}

// ---- Kernel dispatch: AVX2 and the portable loop in one binary ----------

/// Whether this CPU can run the AVX2 kernels, asked without going through
/// the library's dispatch.
bool cpu_has_avx2() {
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

/// Forces the portable tile loop for its lifetime and restores the path
/// dispatched before it on every exit from the scope.
class PortableKernelScope {
 public:
  PortableKernelScope() { set_simd_enabled(false); }
  ~PortableKernelScope() { set_simd_enabled(saved_); }
  PortableKernelScope(const PortableKernelScope&) = delete;
  PortableKernelScope& operator=(const PortableKernelScope&) = delete;

 private:
  bool saved_ = compare_block_simd_active();
};

TEST(DominanceBlock, DispatchesToAvx2ExactlyWhenTheCpuHasIt) {
  EXPECT_EQ(compare_block_simd_active(), cpu_has_avx2());
  {
    const PortableKernelScope portable;
    EXPECT_FALSE(compare_block_simd_active());
  }
  EXPECT_EQ(compare_block_simd_active(), cpu_has_avx2());
}

/// One run of the CLI's `mrsky skyline --scheme angular --servers 8
/// --algorithm <algo>` pipeline. The override runs the kernel the pipeline
/// picks from local_algorithm anyway; it only sums each call's stats, since
/// the job metrics keep dominance_tests (as work units) but not
/// prefilter_skips.
struct PipelineRun {
  core::MRSkylineResult result;
  SkylineStats stats;
};

PipelineRun run_cli_pipeline(const PointSet& ps, Algorithm algo) {
  PipelineRun run;
  core::MRSkylineConfig config;
  config.scheme = part::Scheme::kAngular;
  config.servers = 8;
  config.local_algorithm = algo;
  config.local_skyline_override = [&run, algo](const PointSet& points, SkylineStats* stats) {
    SkylineStats call;
    PointSet sky = compute_skyline(points, algo, &call);
    if (stats != nullptr) *stats += call;
    run.stats += call;
    return sky;
  };
  run.result = core::run_mr_skyline(ps, config);
  return run;
}

void expect_same_work(const mr::JobMetrics& a, const mr::JobMetrics& b, const std::string& what) {
  ASSERT_EQ(a.map_tasks.size(), b.map_tasks.size()) << what;
  ASSERT_EQ(a.reduce_tasks.size(), b.reduce_tasks.size()) << what;
  for (std::size_t t = 0; t < a.map_tasks.size(); ++t) {
    EXPECT_EQ(a.map_tasks[t].work_units, b.map_tasks[t].work_units) << what << " map " << t;
  }
  for (std::size_t t = 0; t < a.reduce_tasks.size(); ++t) {
    EXPECT_EQ(a.reduce_tasks[t].work_units, b.reduce_tasks[t].work_units)
        << what << " reduce " << t;
  }
}

TEST(DominanceBlock, SimdToggleChangesNeitherPipelineResultsNorCounters) {
  if (!cpu_has_avx2()) GTEST_SKIP() << "no AVX2 on this CPU: only the portable loop runs";
  // The QWS-like set the perf smoke's CLI identity check generates.
  const auto ps = qws_like(20000, 6, 2012);
  for (auto algo : {Algorithm::kBnl, Algorithm::kSfs, Algorithm::kDivideConquer}) {
    const std::string name = to_string(algo);
    ASSERT_TRUE(compare_block_simd_active()) << name;
    const PipelineRun avx2 = run_cli_pipeline(ps, algo);
    PipelineRun portable;
    {
      const PortableKernelScope scope;
      ASSERT_FALSE(compare_block_simd_active()) << name;
      portable = run_cli_pipeline(ps, algo);
    }
    expect_identical(avx2.result.skyline, portable.result.skyline, name.c_str());
    EXPECT_EQ(avx2.stats.dominance_tests, portable.stats.dominance_tests) << name;
    EXPECT_EQ(avx2.stats.prefilter_skips, portable.stats.prefilter_skips) << name;
    expect_same_work(avx2.result.partition_job, portable.result.partition_job, name + " job 1");
    ASSERT_EQ(avx2.result.merge_rounds.size(), portable.result.merge_rounds.size()) << name;
    for (std::size_t r = 0; r < avx2.result.merge_rounds.size(); ++r) {
      expect_same_work(avx2.result.merge_rounds[r], portable.result.merge_rounds[r],
                       name + " merge round " + std::to_string(r + 1));
    }
  }
}

TEST(DominanceBlock, PipelineSequentialAndThreadedAreByteIdentical) {
  const auto ps = qws_like(3000, 6, 99);
  core::MRSkylineConfig seq;
  seq.servers = 4;
  core::MRSkylineConfig par = seq;
  par.run_options.mode = mr::ExecutionMode::kThreads;
  par.run_options.num_threads = 4;
  const auto a = core::run_mr_skyline(ps, seq);
  const auto b = core::run_mr_skyline(ps, par);
  expect_identical(a.skyline, b.skyline, "seq vs threads");
}

}  // namespace
}  // namespace mrsky::skyline
