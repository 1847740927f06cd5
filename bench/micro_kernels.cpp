// Micro-benchmarks (google-benchmark) for the hot kernels underneath the
// MapReduce pipeline: dominance tests, the sequential skyline algorithms,
// the hyperspherical transform, and partition assignment.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench/support.hpp"
#include "src/geometry/hyperspherical.hpp"
#include "src/partition/angular.hpp"
#include "src/partition/dimensional.hpp"
#include "src/partition/grid.hpp"
#include "src/spatial/bbs.hpp"
#include "src/spatial/rtree.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/dominance.hpp"
#include "src/skyline/dominance_block.hpp"

using namespace mrsky;

namespace {

data::PointSet workload(std::size_t n, std::size_t dim) {
  return bench::qws_workload(n, dim, bench::kDefaultSeed);
}

void BM_DominanceTest(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto ps = workload(1024, dim);
  std::size_t i = 0;
  for (auto _ : state) {
    const bool result = skyline::dominates(ps.point(i % 1024), ps.point((i + 511) % 1024));
    benchmark::DoNotOptimize(result);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DominanceTest)->Arg(2)->Arg(4)->Arg(10);

void BM_CompareThreeWay(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto ps = workload(1024, dim);
  std::size_t i = 0;
  for (auto _ : state) {
    const auto rel = skyline::compare(ps.point(i % 1024), ps.point((i + 511) % 1024));
    benchmark::DoNotOptimize(rel);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CompareThreeWay)->Arg(2)->Arg(10);

// ---- Scalar-vs-block dominance kernel (run via scripts/ci_perf_smoke.sh
// with --benchmark_out to land machine-readable JSON in experiment_results/).
// Every variant scans one candidate against a full 512-point window — the BNL
// survivor case, where no early dominator cuts the scan short — so the ratio
// isolates kernel throughput from algorithmic early exits.

void BM_DominanceWindowScalar(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kWindow = 512;
  const auto ps = workload(kWindow + 256, dim);
  std::vector<std::size_t> window(kWindow);
  for (std::size_t w = 0; w < kWindow; ++w) window[w] = w;
  std::size_t c = 0;
  for (auto _ : state) {
    const auto p = ps.point(kWindow + c % 256);
    unsigned acc = 0;
    for (std::size_t w : window) {
      acc += static_cast<unsigned>(skyline::compare(p, ps.point(w)));
    }
    benchmark::DoNotOptimize(acc);
    ++c;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWindow));
  state.SetLabel("pairs/s");
}
BENCHMARK(BM_DominanceWindowScalar)->Arg(4)->Arg(9);

// The tiled kernels, as dispatched (AVX2 where the CPU has it) and as the
// portable loop called directly, so one binary measures both paths. The
// label names the path the run took.
const char* dispatched_label() {
  return skyline::compare_block_simd_active() ? "pairs/s avx2" : "pairs/s scalar-tile";
}

template <typename Kernel>
void window_block(benchmark::State& state, Kernel kernel) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kWindow = 512;
  const auto ps = workload(kWindow + 256, dim);
  skyline::TiledWindow window(dim);
  for (std::size_t w = 0; w < kWindow; ++w) window.push_back(ps, w);
  std::size_t c = 0;
  for (auto _ : state) {
    const auto p = ps.point(kWindow + c % 256);
    std::uint32_t acc = 0;
    for (std::size_t t = 0; t < window.tiles(); ++t) {
      const skyline::TileMasks m = kernel(p.data(), window.tile_data(t), dim);
      acc += m.lt ^ m.gt;
    }
    benchmark::DoNotOptimize(acc);
    ++c;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWindow));
}

void BM_DominanceWindowBlock(benchmark::State& state) {
  window_block(state, skyline::compare_block);
  state.SetLabel(dispatched_label());
}
BENCHMARK(BM_DominanceWindowBlock)->Arg(4)->Arg(9);

void BM_DominanceWindowBlockPortable(benchmark::State& state) {
  window_block(state, skyline::compare_block_scalar);
  state.SetLabel("pairs/s scalar-tile");
}
BENCHMARK(BM_DominanceWindowBlockPortable)->Arg(4)->Arg(9);

// The one-directional probe (SFS / D&C cross-filter): alive-lane early exit.
template <typename Kernel>
void dominator_probe_block(benchmark::State& state, Kernel kernel) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kWindow = 512;
  const auto ps = workload(kWindow + 256, dim);
  skyline::TiledWindow window(dim);
  for (std::size_t w = 0; w < kWindow; ++w) window.push_back(ps, w);
  std::size_t c = 0;
  for (auto _ : state) {
    const auto p = ps.point(kWindow + c % 256);
    std::uint32_t acc = 0;
    for (std::size_t t = 0; t < window.tiles(); ++t) {
      acc += kernel(p.data(), window.tile_data(t), dim);
    }
    benchmark::DoNotOptimize(acc);
    ++c;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kWindow));
}

void BM_DominatorProbeBlock(benchmark::State& state) {
  dominator_probe_block(state, skyline::dominators_in_block);
  state.SetLabel(dispatched_label());
}
BENCHMARK(BM_DominatorProbeBlock)->Arg(4)->Arg(9);

void BM_DominatorProbeBlockPortable(benchmark::State& state) {
  dominator_probe_block(state, skyline::dominators_in_block_scalar);
  state.SetLabel("pairs/s scalar-tile");
}
BENCHMARK(BM_DominatorProbeBlockPortable)->Arg(4)->Arg(9);

// Corner-prefilter ablation. The prefilter engages hardest in the D&C
// cross-filter, whose many small against-windows have tight corners (on qws
// data it answers over half the candidate scans); BNL is included as the
// near-worst case, where a single wide window leaves the corners loose and
// the prefilter is mostly overhead.
template <skyline::Algorithm Algo>
void BM_PrefilterAblation(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const bool enabled = state.range(1) != 0;
  const auto ps = workload(4000, dim);
  const bool saved = skyline::prefilter_enabled();
  skyline::set_prefilter_enabled(enabled);
  for (auto _ : state) {
    auto sky = skyline::compute_skyline(ps, Algo);
    benchmark::DoNotOptimize(sky);
  }
  skyline::set_prefilter_enabled(saved);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4000);
  state.SetLabel(enabled ? "prefilter=on" : "prefilter=off");
}
BENCHMARK(BM_PrefilterAblation<skyline::Algorithm::kDivideConquer>)
    ->ArgsProduct({{4, 9}, {0, 1}});
BENCHMARK(BM_PrefilterAblation<skyline::Algorithm::kBnl>)->ArgsProduct({{4, 9}, {0, 1}});

template <skyline::Algorithm Algo>
void BM_SkylineAlgorithm(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto ps = workload(n, dim);
  for (auto _ : state) {
    auto sky = skyline::compute_skyline(ps, Algo);
    benchmark::DoNotOptimize(sky);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SkylineAlgorithm<skyline::Algorithm::kBnl>)
    ->ArgsProduct({{1000, 10000}, {4, 10}});
BENCHMARK(BM_SkylineAlgorithm<skyline::Algorithm::kSfs>)
    ->ArgsProduct({{1000, 10000}, {4, 10}});
BENCHMARK(BM_SkylineAlgorithm<skyline::Algorithm::kDivideConquer>)
    ->ArgsProduct({{1000, 10000}, {4, 10}});

void BM_RTreeBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto ps = workload(n, 4);
  for (auto _ : state) {
    spatial::RTree tree(ps, 16);
    benchmark::DoNotOptimize(tree.node_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RTreeBuild)->Arg(1000)->Arg(10000);

void BM_BbsSkyline(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto dim = static_cast<std::size_t>(state.range(1));
  const auto ps = workload(n, dim);
  const spatial::RTree tree(ps, 16);
  for (auto _ : state) {
    auto sky = spatial::bbs_skyline(tree);
    benchmark::DoNotOptimize(sky);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BbsSkyline)->ArgsProduct({{1000, 10000}, {4, 10}});

void BM_HypersphericalTransform(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto ps = workload(1024, dim);
  std::vector<double> phi;
  std::size_t i = 0;
  for (auto _ : state) {
    geo::angles_of(ps.point(i % 1024), phi);
    benchmark::DoNotOptimize(phi);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HypersphericalTransform)->Arg(2)->Arg(10);

template <typename Partitioner>
void BM_PartitionAssign(benchmark::State& state) {
  const auto dim = static_cast<std::size_t>(state.range(0));
  const auto ps = workload(4096, dim);
  Partitioner partitioner(16);
  partitioner.fit(ps);
  std::size_t i = 0;
  for (auto _ : state) {
    const std::size_t p = partitioner.assign(ps.point(i % 4096));
    benchmark::DoNotOptimize(p);
    ++i;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PartitionAssign<part::DimensionalPartitioner>)->Arg(10);
BENCHMARK(BM_PartitionAssign<part::GridPartitioner>)->Arg(10);
// d = 2 and 4 are the serve-churn subspace and out-of-core job shapes.
BENCHMARK(BM_PartitionAssign<part::AngularPartitioner>)->Arg(2)->Arg(4)->Arg(10);

}  // namespace

BENCHMARK_MAIN();
