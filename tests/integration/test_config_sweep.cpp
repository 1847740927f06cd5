// Randomised config-sweep differential testing (ISSUE 4): ~200
// deterministically sampled MRSkylineConfig combinations — partitioning
// scheme, partition/map-task counts, merge fan-in, salting, combiner, fit
// sampling, fault injection — each run under both execution modes on small
// fixed-seed workloads. Every run must produce exactly the naive-skyline
// ground truth, and the kSequential and kThreads outputs must be
// byte-identical (same ids, same order, same double bits). A slice of the
// sweep also runs with tracing on and checks the span-tree invariants, so
// observability can never perturb results.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/trace.hpp"
#include "src/core/mr_skyline.hpp"
#include "src/dataset/block_store.hpp"
#include "src/dataset/generators.hpp"
#include "src/partition/stats.hpp"
#include "src/service/query_engine.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/extensions.hpp"
#include "tests/support/recording_source.hpp"
#include "tests/support/trace_test_utils.hpp"

namespace mrsky {
namespace {

struct SweepCase {
  data::PointSet points{1};
  core::MRSkylineConfig config;
  std::string description;
};

/// Everything — workload and configuration — derives from the case index,
/// so a failure report names a reproducible case.
SweepCase make_case(std::uint64_t index) {
  common::Rng rng(index * 0x9e3779b9 + 0x5133d);
  SweepCase c;

  const std::size_t n = 40 + rng.uniform_index(260);
  const std::size_t dim = 2 + rng.uniform_index(5);
  const auto dist = static_cast<data::Distribution>(rng.uniform_index(4));
  c.points = data::generate(dist, n, dim, /*seed=*/index + 1);

  auto& cfg = c.config;
  const part::Scheme schemes[] = {
      part::Scheme::kDimensional, part::Scheme::kGrid,         part::Scheme::kAngular,
      part::Scheme::kAngularEquiDepth, part::Scheme::kAngularRadial, part::Scheme::kPivot,
      part::Scheme::kRandom};
  cfg.scheme = schemes[rng.uniform_index(std::size(schemes))];
  cfg.servers = 1 + rng.uniform_index(6);
  cfg.num_partitions = rng.uniform() < 0.5 ? 0 : 1 + rng.uniform_index(10);
  if (cfg.scheme == part::Scheme::kAngularRadial) {
    // Radial cells = sectors x radial_bands (2 by default): the explicit
    // partition count must be even.
    cfg.num_partitions += cfg.num_partitions % 2;
  }
  cfg.num_map_tasks = rng.uniform() < 0.5 ? 0 : 1 + rng.uniform_index(8);
  const std::size_t fans[] = {0, 0, 2, 3, 4};
  cfg.merge_fan_in = fans[rng.uniform_index(std::size(fans))];
  cfg.use_combiner = rng.uniform() < 0.5;
  cfg.apply_grid_pruning = rng.uniform() < 0.8;
  cfg.salt_oversized_partitions = rng.uniform() < 0.3;
  cfg.salt_target_factor = 1.0 + rng.uniform() * 2.0;
  if (rng.uniform() < 0.25) {
    cfg.fit_sample_size = 20 + rng.uniform_index(60);
    cfg.fit_sample_seed = index;
  }
  if (rng.uniform() < 0.4) {
    cfg.run_options.task_failure_probability = 0.05 + rng.uniform() * 0.15;
    cfg.run_options.max_task_attempts = 10;
    cfg.run_options.failure_seed = index * 31 + 7;
  }

  c.description = data::to_string(dist) + " n=" + std::to_string(n) +
                  " d=" + std::to_string(dim) + " scheme=" + part::to_string(cfg.scheme) +
                  " servers=" + std::to_string(cfg.servers) +
                  " parts=" + std::to_string(cfg.num_partitions) +
                  " fan=" + std::to_string(cfg.merge_fan_in) +
                  (cfg.use_combiner ? " combiner" : "") +
                  (cfg.salt_oversized_partitions ? " salted" : "") +
                  (cfg.run_options.task_failure_probability > 0 ? " faults" : "");
  return c;
}

/// The exact bits of a skyline, in output order.
struct SkylineBits {
  std::vector<data::PointId> ids;
  std::vector<std::uint64_t> coord_bits;

  explicit SkylineBits(const data::PointSet& sky) {
    for (std::size_t i = 0; i < sky.size(); ++i) {
      ids.push_back(sky.id(i));
      for (double c : sky.point(i)) coord_bits.push_back(std::bit_cast<std::uint64_t>(c));
    }
  }
  bool operator==(const SkylineBits&) const = default;
};

class ConfigSweep : public testing::TestWithParam<std::uint64_t> {
 protected:
  /// One pool shared by every kThreads case in the sweep (constructing 200
  /// pools would dominate the suite's runtime).
  static common::ThreadPool& shared_pool() {
    static common::ThreadPool pool(4);
    return pool;
  }
};

TEST_P(ConfigSweep, MatchesGroundTruthUnderBothModes) {
  SweepCase c = make_case(GetParam());
  const auto reference = sorted_ids(skyline::naive_skyline(c.points));

  // Every ~7th case also records a trace, to prove observability does not
  // perturb results and the recorded timeline stays well-shaped.
  common::TraceRecorder recorder;
  const bool traced = GetParam() % 7 == 0;

  c.config.run_options.mode = mr::ExecutionMode::kSequential;
  c.config.run_options.trace = traced ? &recorder : nullptr;
  const auto sequential = core::run_mr_skyline(c.points, c.config);
  EXPECT_EQ(sorted_ids(sequential.skyline), reference) << c.description;

  c.config.run_options.mode = mr::ExecutionMode::kThreads;
  c.config.run_options.pool = &shared_pool();
  c.config.run_options.trace = nullptr;
  const auto threaded = core::run_mr_skyline(c.points, c.config);
  EXPECT_EQ(sorted_ids(threaded.skyline), reference) << c.description;

  EXPECT_TRUE(SkylineBits(sequential.skyline) == SkylineBits(threaded.skyline))
      << "kSequential and kThreads outputs differ bytewise on " << c.description;
  EXPECT_EQ(sequential.merge_rounds.size(), threaded.merge_rounds.size()) << c.description;

  if (traced) {
    const auto spans = recorder.spans();
    EXPECT_TRUE(test::well_formed(spans)) << c.description;
    EXPECT_TRUE(test::no_sibling_overlap(spans)) << c.description;
    EXPECT_TRUE(test::retries_precede_success(spans)) << c.description;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, ConfigSweep, testing::Range<std::uint64_t>(0, 200),
                         [](const auto& param_info) {
                           return "case" + std::to_string(param_info.param);
                         });

/// Partition-report sweep: run_mr_skyline builds its report from job 1's own
/// routing, so over the same cases it must equal analyze_partitioning applied
/// to the rows job 1 streams — every point of a resident input, under both
/// execution modes, and the rows of the surviving blocks of a streamed one —
/// whatever the combiner, grid pruning, salting and fault-injection settings.
class PartitionReportSweep : public testing::TestWithParam<std::uint64_t> {};

void expect_same_report(const part::PartitionReport& actual,
                        const part::PartitionReport& expected, const std::string& where) {
  EXPECT_EQ(actual.sizes, expected.sizes) << where;
  EXPECT_EQ(actual.non_empty, expected.non_empty) << where;
  EXPECT_EQ(actual.largest, expected.largest) << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(actual.balance_cv),
            std::bit_cast<std::uint64_t>(expected.balance_cv))
      << where;
  EXPECT_EQ(actual.prunable, expected.prunable) << where;
  EXPECT_EQ(actual.pruned_points, expected.pruned_points) << where;
}

TEST_P(PartitionReportSweep, ReportMatchesAnalysisOfTheRowsJobOneStreams) {
  SweepCase c = make_case(GetParam());
  part::PartitionerOptions popts;
  popts.num_partitions = c.config.effective_partitions();
  popts.split_dim = c.config.split_dim;
  const part::PartitionerPtr partitioner = part::make_partitioner(c.config.scheme, popts);
  partitioner->fit(c.points);
  c.config.prepared_partitioner = partitioner.get();

  const part::PartitionReport expected = part::analyze_partitioning(*partitioner, c.points);
  static common::ThreadPool pool(4);
  c.config.run_options.mode = mr::ExecutionMode::kSequential;
  expect_same_report(core::run_mr_skyline(c.points, c.config).partition_report, expected,
                     c.description + " (kSequential)");
  c.config.run_options.mode = mr::ExecutionMode::kThreads;
  c.config.run_options.pool = &pool;
  expect_same_report(core::run_mr_skyline(c.points, c.config).partition_report, expected,
                     c.description + " (kThreads)");

  // Streamed from Z-ordered 16-row blocks, so some cases prune blocks.
  const std::string path =
      testing::TempDir() + "/report_sweep_" + std::to_string(GetParam()) + ".mrb";
  data::write_block_store(path, c.points.select(data::zorder_permutation(c.points)), 16);
  const data::BlockStoreSource store(path);
  const test::RecordingSource source(store);
  c.config.run_options.mode = mr::ExecutionMode::kSequential;
  c.config.run_options.pool = nullptr;
  const auto streamed = core::run_mr_skyline(source, c.config);
  const auto read = source.job_reads();
  const std::set<std::size_t> surviving_blocks(read.begin(), read.end());
  EXPECT_EQ(surviving_blocks.size(), store.block_count() - streamed.partition_job.blocks_pruned)
      << c.description;
  data::PointSet surviving(c.points.dim());
  for (const std::size_t b : surviving_blocks) store.read_block(b, surviving);
  expect_same_report(streamed.partition_report,
                     part::analyze_partitioning(*partitioner, surviving),
                     c.description + " (streamed)");
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Cases, PartitionReportSweep, testing::Range<std::uint64_t>(0, 200),
                         [](const auto& param_info) {
                           return "case" + std::to_string(param_info.param);
                         });

/// Extension differential sweep (ISSUE 5): k-skyband, representative skyline
/// and weighted top-k checked against independent brute-force oracles on
/// randomised workloads, plus a QueryEngine slice proving the serving layer
/// (and its cache) returns the same bits as the direct computation.
class ExtensionSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ExtensionSweep, ExtensionsMatchBruteForceOracles) {
  common::Rng rng(GetParam() * 0x51ed5u + 17);
  const std::size_t n = 30 + rng.uniform_index(120);
  const std::size_t dim = 2 + rng.uniform_index(4);
  const auto dist = static_cast<data::Distribution>(rng.uniform_index(4));
  const data::PointSet ps = data::generate(dist, n, dim, /*seed=*/GetParam() * 3 + 1);
  const std::string where = data::to_string(dist) + " n=" + std::to_string(n) +
                            " d=" + std::to_string(dim);

  // --- k-skyband: full O(n^2) dominator count, no early exit. ---
  const std::size_t band_k = 1 + rng.uniform_index(5);
  std::vector<std::size_t> band_survivors;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    std::size_t dominators = 0;
    for (std::size_t j = 0; j < ps.size(); ++j) {
      if (i != j && skyline::dominates(ps.point(j), ps.point(i))) ++dominators;
    }
    if (dominators < band_k) band_survivors.push_back(i);
  }
  const data::PointSet band_oracle = ps.select(band_survivors);
  const data::PointSet band = skyline::k_skyband(ps, band_k);
  EXPECT_TRUE(SkylineBits(band) == SkylineBits(band_oracle)) << where << " k=" << band_k;
  if (band_k == 1) {
    EXPECT_EQ(sorted_ids(band), sorted_ids(skyline::naive_skyline(ps))) << where;
  }

  // --- representative: greedy max-coverage, earliest candidate on ties. ---
  const std::size_t rep_k = 1 + rng.uniform_index(6);
  const data::PointSet sky = skyline::bnl_skyline(ps);
  std::vector<bool> covered(ps.size(), false);
  std::vector<bool> used(sky.size(), false);
  std::vector<data::PointId> rep_ids;
  std::vector<std::size_t> rep_coverage;
  std::size_t rep_total = 0;
  for (std::size_t round = 0; round < rep_k && round < sky.size(); ++round) {
    std::vector<std::size_t> gain(sky.size(), 0);
    for (std::size_t s = 0; s < sky.size(); ++s) {
      if (used[s]) continue;
      for (std::size_t i = 0; i < ps.size(); ++i) {
        if (!covered[i] && skyline::dominates(sky.point(s), ps.point(i))) ++gain[s];
      }
    }
    std::size_t best = sky.size();
    for (std::size_t s = 0; s < sky.size(); ++s) {
      if (!used[s] && (best == sky.size() || gain[s] > gain[best])) best = s;
    }
    ASSERT_LT(best, sky.size()) << where;
    used[best] = true;
    rep_ids.push_back(sky.id(best));
    rep_coverage.push_back(gain[best]);
    rep_total += gain[best];
    for (std::size_t i = 0; i < ps.size(); ++i) {
      if (!covered[i] && skyline::dominates(sky.point(best), ps.point(i))) covered[i] = true;
    }
  }
  const auto rep = skyline::representative_skyline(ps, rep_k);
  std::vector<data::PointId> got_ids;
  for (std::size_t i = 0; i < rep.representatives.size(); ++i) {
    got_ids.push_back(rep.representatives.id(i));
  }
  EXPECT_EQ(got_ids, rep_ids) << where << " k=" << rep_k;
  EXPECT_EQ(rep.coverage, rep_coverage) << where << " k=" << rep_k;
  EXPECT_EQ(rep.total_covered, rep_total) << where << " k=" << rep_k;

  // --- weighted top-k: brute-force skyline membership, same (score, id)
  // order. Scores accumulate in attribute order, so bits match exactly. ---
  const std::size_t top_k = 1 + rng.uniform_index(8);
  std::vector<double> weights(dim);
  for (double& w : weights) w = rng.uniform();
  std::vector<skyline::ScoredPoint> top_oracle;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < ps.size() && !dominated; ++j) {
      dominated = i != j && skyline::dominates(ps.point(j), ps.point(i));
    }
    if (dominated) continue;
    double score = 0.0;
    const auto p = ps.point(i);
    for (std::size_t a = 0; a < p.size(); ++a) score += weights[a] * p[a];
    top_oracle.push_back({ps.id(i), score});
  }
  std::sort(top_oracle.begin(), top_oracle.end(),
            [](const skyline::ScoredPoint& a, const skyline::ScoredPoint& b) {
              if (a.score != b.score) return a.score < b.score;
              return a.id < b.id;
            });
  if (top_oracle.size() > top_k) top_oracle.resize(top_k);
  const auto top = skyline::top_k_weighted(ps, weights, top_k);
  ASSERT_EQ(top.size(), top_oracle.size()) << where << " k=" << top_k;
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].id, top_oracle[i].id) << where << " rank " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(top[i].score),
              std::bit_cast<std::uint64_t>(top_oracle[i].score))
        << where << " rank " << i;
  }

  // --- QueryEngine slice: the serving layer (cold, then cached) must return
  // the very same bits as the direct calls above. ---
  if (GetParam() % 3 == 0) {
    service::QueryEngine engine(ps, {});
    for (int pass = 0; pass < 2; ++pass) {
      const auto eband = engine.execute(service::KSkybandQuery{band_k});
      EXPECT_EQ(eband.metrics.cache_hit, pass == 1) << where;
      EXPECT_EQ(sorted_ids(eband.points), sorted_ids(band_oracle)) << where;
      const auto erep = engine.execute(service::RepresentativeQuery{rep_k});
      std::vector<data::PointId> engine_rep_ids;
      for (std::size_t i = 0; i < erep.points.size(); ++i) {
        engine_rep_ids.push_back(erep.points.id(i));
      }
      EXPECT_EQ(engine_rep_ids, rep_ids) << where;
      const auto etop = engine.execute(service::TopKWeightedQuery{weights, top_k});
      ASSERT_EQ(etop.ranking.size(), top_oracle.size()) << where;
      for (std::size_t i = 0; i < etop.ranking.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(etop.ranking[i].score),
                  std::bit_cast<std::uint64_t>(top_oracle[i].score))
            << where << " rank " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, ExtensionSweep, testing::Range<std::uint64_t>(0, 60),
                         [](const auto& param_info) {
                           return "case" + std::to_string(param_info.param);
                         });

/// Representative-filter sweep: ConfigSweep's cases with
/// MRSkylineConfig::representative_filter on. Every fourth case snaps its
/// coordinates to the quarter grid {0, 0.25, 0.5, 0.75, 1}, which makes
/// exact duplicates of skyline points and of representatives — the rows a
/// probe that treated equality as dominance would wrongly drop. Filtered
/// runs must return the naive skyline's ids, byte-identical under both
/// execution modes, canonically bitwise equal from a `.mrb` store and to the
/// unfiltered run, and must never shuffle more records than the unfiltered
/// run.
class RepresentativeFilterSweep : public testing::TestWithParam<std::uint64_t> {};

data::PointSet snap_to_quarter_grid(const data::PointSet& ps) {
  std::vector<double> values(ps.raw().begin(), ps.raw().end());
  for (double& v : values) v = std::round(v * 4.0) / 4.0;
  return data::PointSet(ps.dim(), std::move(values),
                        std::vector<data::PointId>(ps.ids().begin(), ps.ids().end()));
}

/// Rows of `ps` in ascending-id order: filtering changes which local-skyline
/// points reach the merge, which can change the merge's emission order but
/// never its members.
data::PointSet canonical_by_id(const data::PointSet& ps) {
  std::vector<std::size_t> order(ps.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ps.id(a) < ps.id(b); });
  return ps.select(order);
}

TEST_P(RepresentativeFilterSweep, FilteredRunsKeepEverySkylineBitwise) {
  SweepCase c = make_case(GetParam());
  if (GetParam() % 4 == 0) {
    c.points = snap_to_quarter_grid(c.points);
    c.description += " quarter-grid";
  }
  c.config.representative_filter = true;
  const auto reference = sorted_ids(skyline::naive_skyline(c.points));

  c.config.run_options.mode = mr::ExecutionMode::kSequential;
  const auto sequential = core::run_mr_skyline(c.points, c.config);
  EXPECT_EQ(sorted_ids(sequential.skyline), reference) << c.description;
  const SkylineBits canonical(canonical_by_id(sequential.skyline));

  static common::ThreadPool pool(4);
  c.config.run_options.mode = mr::ExecutionMode::kThreads;
  c.config.run_options.pool = &pool;
  const auto threaded = core::run_mr_skyline(c.points, c.config);
  EXPECT_TRUE(SkylineBits(sequential.skyline) == SkylineBits(threaded.skyline))
      << "kSequential and kThreads outputs differ bytewise on " << c.description;

  // Streamed from Z-ordered 16-row blocks: the representatives come from
  // the block sample instead of the resident draw.
  const std::string path =
      testing::TempDir() + "/filter_sweep_" + std::to_string(GetParam()) + ".mrb";
  data::write_block_store(path, c.points.select(data::zorder_permutation(c.points)), 16);
  c.config.run_options.mode = mr::ExecutionMode::kSequential;
  c.config.run_options.pool = nullptr;
  {
    const data::BlockStoreSource store(path);
    const auto streamed = core::run_mr_skyline(store, c.config);
    EXPECT_TRUE(SkylineBits(canonical_by_id(streamed.skyline)) == canonical)
        << "streamed and resident filtered runs differ on " << c.description;
  }
  std::remove(path.c_str());

  c.config.representative_filter = false;
  const auto unfiltered = core::run_mr_skyline(c.points, c.config);
  EXPECT_TRUE(SkylineBits(canonical_by_id(unfiltered.skyline)) == canonical)
      << "filtered and unfiltered runs differ on " << c.description;
  EXPECT_LE(sequential.partition_job.shuffle_records, unfiltered.partition_job.shuffle_records)
      << c.description;
}

INSTANTIATE_TEST_SUITE_P(Cases, RepresentativeFilterSweep, testing::Range<std::uint64_t>(0, 200),
                         [](const auto& param_info) {
                           return "case" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace mrsky
