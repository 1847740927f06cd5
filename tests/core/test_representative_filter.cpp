// The representative filter (MRSkylineConfig::representative_filter): how
// the representatives are picked, and the QueryEngine's default of running
// it. The exactness sweep over ConfigSweep's cases lives in
// tests/integration/test_config_sweep.cpp (RepresentativeFilterSweep).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/core/mr_skyline.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/normalize.hpp"
#include "src/dataset/qws.hpp"
#include "src/service/query_engine.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/dominance.hpp"

namespace mrsky {
namespace {

std::vector<std::uint64_t> bits_of(const data::PointSet& ps) {
  std::vector<std::uint64_t> bits;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    bits.push_back(ps.id(i));
    for (double c : ps.point(i)) bits.push_back(std::bit_cast<std::uint64_t>(c));
  }
  return bits;
}

data::PointSet snap_to_quarter_grid(const data::PointSet& ps) {
  std::vector<double> values(ps.raw().begin(), ps.raw().end());
  for (double& v : values) v = std::round(v * 4.0) / 4.0;
  return data::PointSet(ps.dim(), std::move(values),
                        std::vector<data::PointId>(ps.ids().begin(), ps.ids().end()));
}

/// ∏(max_a − p_a) against the max corner of `sample`, as the pick defines it.
double dominated_volume(const data::PointSet& sample, std::span<const double> p) {
  double v = 1.0;
  for (std::size_t a = 0; a < sample.dim(); ++a) {
    double max = sample.at(0, a);
    for (std::size_t i = 1; i < sample.size(); ++i) max = std::max(max, sample.at(i, a));
    v *= max - p[a];
  }
  return v;
}

struct PickCase {
  data::Distribution dist;
  std::size_t n;
  std::size_t dim;
};

const PickCase kPickCases[] = {
    {data::Distribution::kIndependent, 10000, 2},  {data::Distribution::kIndependent, 9000, 4},
    {data::Distribution::kAnticorrelated, 8000, 3}, {data::Distribution::kAnticorrelated, 300, 5},
    {data::Distribution::kCorrelated, 5000, 6},    {data::Distribution::kClustered, 4096, 4},
    {data::Distribution::kIndependent, 40, 3},
};

std::string describe(const PickCase& c) {
  return data::to_string(c.dist) + " n=" + std::to_string(c.n) + " d=" + std::to_string(c.dim);
}

TEST(RepresentativePick, SampleIsDistinctInputRowsInInputOrder) {
  for (const PickCase& c : kPickCases) {
    const data::PointSet ps = data::generate(c.dist, c.n, c.dim, c.n + c.dim);
    const data::PointSet sample = core::representative_sample(ps, 0x5a3e);
    ASSERT_EQ(sample.size(), std::min(core::kOutOfCoreFitSample, c.n)) << describe(c);
    // generate() numbers rows 0..n-1, so ids are row indices.
    for (std::size_t i = 0; i < sample.size(); ++i) {
      if (i > 0) {
        EXPECT_LT(sample.id(i - 1), sample.id(i)) << describe(c);
      }
      const auto row = ps.point(sample.id(i));
      EXPECT_TRUE(std::equal(row.begin(), row.end(), sample.point(i).begin())) << describe(c);
    }
    // Spread over the whole input, not its head.
    if (c.n > 2 * core::kOutOfCoreFitSample) {
      EXPECT_GE(sample.id(sample.size() - 1), c.n - c.n / core::kOutOfCoreFitSample - 1)
          << describe(c);
    }
  }
}

TEST(RepresentativePick, AtMostThirtyTwoMutuallyNonDominatingSampleSkylinePoints) {
  for (const PickCase& c : kPickCases) {
    const data::PointSet ps = data::generate(c.dist, c.n, c.dim, c.n + c.dim);
    const data::PointSet sample = core::representative_sample(ps, 7);
    const data::PointSet sky = skyline::compute_skyline(sample, skyline::Algorithm::kBnl);
    const data::PointSet reps = core::pick_representatives(sample, sky);
    ASSERT_EQ(reps.size(), std::min(core::kFilterRepresentatives, sky.size())) << describe(c);
    const auto sky_ids = sorted_ids(sky);
    for (std::size_t i = 0; i < reps.size(); ++i) {
      EXPECT_TRUE(std::binary_search(sky_ids.begin(), sky_ids.end(), reps.id(i))) << describe(c);
      for (std::size_t j = 0; j < reps.size(); ++j) {
        EXPECT_FALSE(skyline::dominates(reps.point(i), reps.point(j)))
            << describe(c) << " representative " << i << " dominates " << j;
      }
    }
  }
}

TEST(RepresentativePick, OrderedByDominatedVolumeTiesInSampleOrder) {
  for (const PickCase& c : kPickCases) {
    // The quarter grid makes volume ties between distinct skyline points.
    const data::PointSet ps =
        snap_to_quarter_grid(data::generate(c.dist, c.n, c.dim, c.n + c.dim + 1));
    const data::PointSet sample = core::representative_sample(ps, 11);
    const data::PointSet sky = skyline::compute_skyline(sample, skyline::Algorithm::kBnl);
    // Oracle: every sample-skyline point by volume, largest first, stable.
    std::vector<std::size_t> order(sky.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return dominated_volume(sample, sky.point(a)) > dominated_volume(sample, sky.point(b));
    });
    order.resize(std::min(core::kFilterRepresentatives, order.size()));
    EXPECT_EQ(bits_of(core::pick_representatives(sample, sky)), bits_of(sky.select(order)))
        << describe(c);
  }
}

TEST(RepresentativePick, DeterministicInTheSeed) {
  const data::PointSet ps = data::generate(data::Distribution::kAnticorrelated, 20000, 4, 3);
  auto pick = [&ps](std::uint64_t seed) {
    const data::PointSet sample = core::representative_sample(ps, seed);
    return bits_of(core::pick_representatives(
        sample, skyline::compute_skyline(sample, skyline::Algorithm::kBnl)));
  };
  EXPECT_EQ(pick(0x5a3e), pick(0x5a3e));
  EXPECT_EQ(bits_of(core::representative_sample(ps, 99)),
            bits_of(core::representative_sample(ps, 99)));
  // 20000 rows over a 4096-row sample: the seed shifts which rows it takes.
  std::set<std::vector<std::uint64_t>> samples;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    samples.insert(bits_of(core::representative_sample(ps, seed)));
  }
  EXPECT_GT(samples.size(), 1u);
}

TEST(RepresentativeFilterEngine, OnInTheEngineDefaultOffInTheAlgorithmOneDefault) {
  EXPECT_TRUE(service::QueryEngineOptions{}.config.representative_filter);
  EXPECT_FALSE(core::MRSkylineConfig{}.representative_filter);
}

TEST(RepresentativeFilterEngine, FilteredRunsDropRowsAndChargeTheirProbes) {
  const data::PointSet ps = data::generate(data::Distribution::kIndependent, 20000, 3, 5);
  core::MRSkylineConfig config;
  const auto plain = core::run_mr_skyline(ps, config);
  config.representative_filter = true;
  const auto filtered = core::run_mr_skyline(ps, config);
  EXPECT_EQ(sorted_ids(filtered.skyline), sorted_ids(plain.skyline));
  std::uint64_t records_in = 0;
  for (const auto& task : filtered.partition_job.map_tasks) records_in += task.records_in;
  EXPECT_EQ(records_in, ps.size());
  // The report counts survivors only, and most rows do not survive.
  std::size_t reported = 0;
  for (const std::size_t size : filtered.partition_report.sizes) reported += size;
  EXPECT_EQ(reported, filtered.partition_job.shuffle_records);
  EXPECT_LT(reported * 10, ps.size());
  // Every row pays at least one probe; a survivor pays every representative.
  std::uint64_t map_work = 0;
  for (const auto& task : filtered.partition_job.map_tasks) map_work += task.work_units;
  EXPECT_GE(map_work, ps.size() + reported * ps.dim());
}

/// Two engines over the same data and the same writes, one with the filter
/// (the default) and one without: every full-skyline and subspace answer
/// must match bitwise at every version. Writes insert copies of current
/// skyline points (duplicates of representatives) and delete skyline
/// members, so the subspace pipelines rerun on changing data.
TEST(RepresentativeFilterEngine, AnswersMatchAnUnfilteredEngineThroughWrites) {
  for (const bool quarter_grid : {false, true}) {
    data::QwsLikeGenerator generator(4, 17);
    data::PointSet base = data::normalize_min_max(generator.generate_oriented(6000));
    if (quarter_grid) base = snap_to_quarter_grid(base);
    service::QueryEngineOptions filtered_options;
    filtered_options.config.run_options.mode = mr::ExecutionMode::kThreads;
    filtered_options.config.run_options.num_threads = 3;
    service::QueryEngineOptions plain_options;
    plain_options.config.representative_filter = false;
    service::QueryEngine filtered(base, filtered_options);
    service::QueryEngine plain(base, plain_options);

    const std::vector<service::Query> queries = {
        service::SkylineQuery{}, service::SubspaceQuery{{0, 1}},
        service::SubspaceQuery{{1, 2, 3}}, service::SubspaceQuery{{3, 0}}};
    common::Rng rng(quarter_grid ? 2 : 1);
    for (int tick = 0; tick < 8; ++tick) {
      for (const service::Query& query : queries) {
        const auto want = plain.execute(query);
        const auto got = filtered.execute(query);
        EXPECT_EQ(got.metrics.dataset_version, want.metrics.dataset_version);
        EXPECT_EQ(bits_of(got.points), bits_of(want.points))
            << "tick " << tick << (quarter_grid ? " quarter-grid" : "");
      }
      const data::PointSet sky = plain.execute(service::SkylineQuery{}).points;
      service::MutationBatch batch;
      batch.inserts = data::PointSet(base.dim());
      for (int k = 0; k < 6; ++k) {
        const std::size_t s = static_cast<std::size_t>(rng.uniform_index(sky.size()));
        batch.inserts.push_back(sky.point(s), 0);  // a duplicate of a skyline point
        std::vector<double> row(base.dim());
        for (double& v : row) v = rng.uniform();
        batch.inserts.push_back(row, 0);
      }
      batch.deletes.push_back(sky.id(static_cast<std::size_t>(rng.uniform_index(sky.size()))));
      const auto want = plain.apply_batch(batch);
      const auto got = filtered.apply_batch(batch);
      EXPECT_EQ(got.snapshot->version, want.snapshot->version);
    }
  }
}

}  // namespace
}  // namespace mrsky
