#include "src/core/mr_skyline.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "src/common/error.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/normalize.hpp"
#include "src/dataset/qws.hpp"
#include "src/skyline/verify.hpp"

namespace mrsky::core {
namespace {

using data::Distribution;
using data::PointSet;

MRSkylineConfig config_for(part::Scheme scheme, std::size_t servers = 4) {
  MRSkylineConfig config;
  config.scheme = scheme;
  config.servers = servers;
  return config;
}

// ---- Correctness: every scheme must produce the exact global skyline ----

using Param = std::tuple<part::Scheme, Distribution, std::size_t /*dim*/>;

class MRSkylineCorrectness : public testing::TestWithParam<Param> {};

TEST_P(MRSkylineCorrectness, MatchesSequentialBnl) {
  const auto [scheme, dist, dim] = GetParam();
  const PointSet ps = data::generate(dist, 800, dim, 0xACE + dim);
  const auto result = run_mr_skyline(ps, config_for(scheme));
  EXPECT_TRUE(skyline::same_ids(result.skyline, skyline::bnl_skyline(ps)))
      << part::to_string(scheme) << " on " << data::to_string(dist) << " d=" << dim;
}

TEST_P(MRSkylineCorrectness, OutputVerifiesAgainstDataset) {
  const auto [scheme, dist, dim] = GetParam();
  const PointSet ps = data::generate(dist, 500, dim, 0xCAFE + dim);
  const auto result = run_mr_skyline(ps, config_for(scheme));
  const auto verdict = skyline::verify_skyline(ps, result.skyline);
  EXPECT_TRUE(verdict.ok) << verdict.message;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MRSkylineCorrectness,
    testing::Combine(testing::Values(part::Scheme::kDimensional, part::Scheme::kGrid,
                                     part::Scheme::kAngular, part::Scheme::kAngularEquiDepth,
                                     part::Scheme::kAngularRadial, part::Scheme::kRandom),
                     testing::Values(Distribution::kIndependent, Distribution::kAnticorrelated),
                     testing::Values(std::size_t{2}, std::size_t{3}, std::size_t{6})),
    [](const auto& param_info) {
      std::string name = part::to_string(std::get<0>(param_info.param)) + "_" +
                         data::to_string(std::get<1>(param_info.param)) + "_d" +
                         std::to_string(std::get<2>(param_info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---- Pipeline structure -------------------------------------------------

TEST(MRSkyline, LocalSkylinesCoverGlobalSkyline) {
  const PointSet ps = data::generate(Distribution::kIndependent, 1000, 3, 42);
  const auto result = run_mr_skyline(ps, config_for(part::Scheme::kAngular));
  // Every global skyline id must appear in some local skyline.
  std::vector<data::PointId> local_ids;
  for (const auto& local : result.local_skylines) {
    local_ids.insert(local_ids.end(), local.ids().begin(), local.ids().end());
  }
  for (data::PointId id : result.skyline.ids()) {
    EXPECT_NE(std::find(local_ids.begin(), local_ids.end(), id), local_ids.end());
  }
}

TEST(MRSkyline, LocalSkylineOfPartitionIsActuallyLocal) {
  const PointSet ps = data::generate(Distribution::kIndependent, 600, 2, 7);
  const auto result = run_mr_skyline(ps, config_for(part::Scheme::kDimensional));
  // Each reported local skyline must be undominated within itself.
  for (const auto& local : result.local_skylines) {
    if (local.empty()) continue;
    EXPECT_TRUE(skyline::same_ids(local, skyline::bnl_skyline(local)));
  }
}

TEST(MRSkyline, DefaultPartitionsFollowPaper) {
  // Np = 2 × servers (paper §III-A).
  const PointSet ps = data::generate(Distribution::kIndependent, 300, 2, 9);
  MRSkylineConfig config = config_for(part::Scheme::kAngular, 6);
  const auto result = run_mr_skyline(ps, config);
  EXPECT_EQ(result.local_skylines.size(), 12u);
  EXPECT_EQ(result.partition_job.reduce_tasks.size(), 12u);
}

TEST(MRSkyline, ExplicitPartitionCountRespected) {
  const PointSet ps = data::generate(Distribution::kIndependent, 300, 2, 9);
  MRSkylineConfig config = config_for(part::Scheme::kGrid);
  config.num_partitions = 9;
  const auto result = run_mr_skyline(ps, config);
  EXPECT_EQ(result.local_skylines.size(), 9u);
}

TEST(MRSkyline, MergeJobHasSingleReducer) {
  const PointSet ps = data::generate(Distribution::kIndependent, 300, 2, 11);
  const auto result = run_mr_skyline(ps, config_for(part::Scheme::kAngular));
  EXPECT_EQ(result.merge_job().reduce_tasks.size(), 1u);
}

TEST(MRSkyline, CombinerReducesShuffleVolume) {
  const PointSet ps = data::generate(Distribution::kIndependent, 2000, 4, 13);
  MRSkylineConfig with = config_for(part::Scheme::kAngular);
  with.use_combiner = true;
  MRSkylineConfig without = config_for(part::Scheme::kAngular);
  without.use_combiner = false;
  const auto result_with = run_mr_skyline(ps, with);
  const auto result_without = run_mr_skyline(ps, without);
  // Same answer, less shuffled data.
  EXPECT_TRUE(skyline::same_ids(result_with.skyline, result_without.skyline));
  EXPECT_LT(result_with.partition_job.shuffle_records,
            result_without.partition_job.shuffle_records);
}

TEST(MRSkyline, GridPruningSkipsWorkWithoutChangingResult) {
  const PointSet ps = data::generate(Distribution::kIndependent, 3000, 2, 17);
  MRSkylineConfig pruned = config_for(part::Scheme::kGrid, 8);
  MRSkylineConfig unpruned = config_for(part::Scheme::kGrid, 8);
  unpruned.apply_grid_pruning = false;
  const auto result_pruned = run_mr_skyline(ps, pruned);
  const auto result_unpruned = run_mr_skyline(ps, unpruned);
  EXPECT_TRUE(skyline::same_ids(result_pruned.skyline, result_unpruned.skyline));
  EXPECT_FALSE(result_pruned.partition_report.prunable.empty());
  EXPECT_GT(result_pruned.partition_report.pruned_points, 0u);
}

TEST(MRSkyline, WorkUnitsAreCharged) {
  const PointSet ps = data::generate(Distribution::kIndependent, 500, 3, 19);
  const auto result = run_mr_skyline(ps, config_for(part::Scheme::kAngular));
  EXPECT_GT(result.partition_job.total_work_units(), 0u);
  EXPECT_GT(result.merge_job().total_work_units(), 0u);
}

TEST(MRSkyline, SimulationRespondsToServers) {
  const PointSet ps = data::generate(Distribution::kIndependent, 3000, 5, 23);
  const auto result = run_mr_skyline(ps, config_for(part::Scheme::kAngular, 16));
  mr::ClusterModel small;
  small.servers = 4;
  mr::ClusterModel big;
  big.servers = 16;
  EXPECT_GT(result.simulate(small).total_seconds(), result.simulate(big).total_seconds());
}

TEST(MRSkyline, ThreadedRunIdenticalToSequential) {
  const PointSet ps = data::generate(Distribution::kAnticorrelated, 800, 3, 29);
  MRSkylineConfig seq = config_for(part::Scheme::kAngular);
  MRSkylineConfig par = config_for(part::Scheme::kAngular);
  par.run_options.mode = mr::ExecutionMode::kThreads;
  par.run_options.num_threads = 4;
  const auto a = run_mr_skyline(ps, seq);
  const auto b = run_mr_skyline(ps, par);
  EXPECT_EQ(sorted_ids(a.skyline), sorted_ids(b.skyline));
  EXPECT_EQ(a.partition_job.shuffle_records, b.partition_job.shuffle_records);
}

TEST(MRSkyline, AlternativeLocalAlgorithmsAgree) {
  const PointSet ps = data::generate(Distribution::kIndependent, 700, 4, 31);
  MRSkylineConfig bnl = config_for(part::Scheme::kAngular);
  MRSkylineConfig sfs = config_for(part::Scheme::kAngular);
  sfs.local_algorithm = skyline::Algorithm::kSfs;
  MRSkylineConfig dc = config_for(part::Scheme::kAngular);
  dc.local_algorithm = skyline::Algorithm::kDivideConquer;
  const auto r_bnl = run_mr_skyline(ps, bnl);
  const auto r_sfs = run_mr_skyline(ps, sfs);
  const auto r_dc = run_mr_skyline(ps, dc);
  EXPECT_TRUE(skyline::same_ids(r_bnl.skyline, r_sfs.skyline));
  EXPECT_TRUE(skyline::same_ids(r_bnl.skyline, r_dc.skyline));
}

TEST(MRSkyline, QwsWorkloadEndToEnd) {
  data::QwsLikeGenerator gen(10, 37);
  const PointSet ps = data::normalize_min_max(gen.generate_oriented(1500));
  const auto result = run_mr_skyline(ps, config_for(part::Scheme::kAngular));
  EXPECT_TRUE(skyline::same_ids(result.skyline, skyline::bnl_skyline(ps)));
  EXPECT_GT(result.skyline.size(), 0u);
  EXPECT_LT(result.skyline.size(), ps.size());
}

TEST(MRSkyline, SinglePointDataset) {
  PointSet ps(3, {0.5, 0.5, 0.5});
  const auto result = run_mr_skyline(ps, config_for(part::Scheme::kAngular));
  ASSERT_EQ(result.skyline.size(), 1u);
  EXPECT_EQ(result.skyline.id(0), 0u);
}

TEST(MRSkyline, DuplicatePointsAllSurvive) {
  PointSet ps(2, {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0});
  const auto result = run_mr_skyline(ps, config_for(part::Scheme::kAngular));
  EXPECT_EQ(result.skyline.size(), 3u);
}

TEST(MRSkyline, EmptyInputThrows) {
  EXPECT_THROW(run_mr_skyline(PointSet(2), config_for(part::Scheme::kAngular)),
               mrsky::InvalidArgument);
}

TEST(MRSkyline, ZeroServersThrows) {
  PointSet ps(2, {1.0, 1.0});
  MRSkylineConfig config = config_for(part::Scheme::kAngular);
  config.servers = 0;
  EXPECT_THROW(run_mr_skyline(ps, config), mrsky::InvalidArgument);
}

TEST(MRSkyline, WallClockIsMeasured) {
  const PointSet ps = data::generate(Distribution::kIndependent, 500, 3, 41);
  const auto result = run_mr_skyline(ps, config_for(part::Scheme::kAngular));
  EXPECT_GT(result.wall_seconds, 0.0);
}

}  // namespace
}  // namespace mrsky::core
