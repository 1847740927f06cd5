// What a streamed run_mr_skyline reads, and how its spill fails.
//
// After drawing its fit sample, a streamed run reads each block that
// survives corner pruning once (kSequential, no faults) and never a pruned
// one; its partition report counts exactly those blocks' rows. A damaged
// job-1 spill file fails the run with a typed error, never a read past the
// span, and leaves no spill file behind.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/core/mr_skyline.hpp"
#include "src/dataset/block_store.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/source.hpp"
#include "src/partition/stats.hpp"
#include "src/skyline/algorithms.hpp"
#include "tests/support/recording_source.hpp"

namespace mrsky {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kDim = 4;

/// 20,000 independent 4-d rows in Z-order, 128-row blocks: dense enough
/// that corner pruning drops some blocks.
class StreamedReads : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    const data::PointSet points =
        data::generate(data::Distribution::kIndependent, 20000, kDim, /*seed=*/2012);
    path_ = testing::TempDir() + "/streamed_reads_" + std::to_string(::getpid()) + ".mrb";
    data::write_block_store(path_, points.select(data::zorder_permutation(points)), 128);
  }
  static void TearDownTestSuite() { fs::remove(path_); }

  static std::string path_;
};

std::string StreamedReads::path_;

/// The rows of `blocks`, read straight from the store.
data::PointSet rows_of(const data::DatasetSource& store, const std::set<std::size_t>& blocks) {
  data::PointSet rows(store.dim());
  for (const std::size_t b : blocks) store.read_block(b, rows);
  return rows;
}

bool strictly_ascending(const std::vector<std::size_t>& v) {
  return std::adjacent_find(v.begin(), v.end(), std::greater_equal<>()) == v.end();
}

TEST_F(StreamedReads, ReadsTheFitSampleThenEachSurvivingBlockOnce) {
  const data::BlockStoreSource store(path_);
  const test::RecordingSource source(store);
  const auto result = core::run_mr_skyline(source, core::MRSkylineConfig{});
  const mr::JobMetrics& job1 = result.partition_job;
  ASSERT_GT(job1.blocks_pruned, 0u) << "the workload must exercise corner pruning";

  // The fit sample takes rows from every block here, each read once.
  const auto sampled = source.sample_reads();
  EXPECT_EQ(sampled.size(), store.block_count());
  EXPECT_TRUE(strictly_ascending(sampled));

  // Then the map stage's single pass: each surviving block once, in order.
  const auto read = source.job_reads();
  EXPECT_EQ(read.size(), store.block_count() - job1.blocks_pruned);
  EXPECT_TRUE(strictly_ascending(read));
  std::uint64_t read_bytes = 0;
  for (const std::size_t b : read) read_bytes += store.block_stats(b).bytes;
  EXPECT_EQ(read_bytes, job1.bytes_read);

  // The report counts exactly the rows the map stage streamed.
  const data::PointSet surviving = rows_of(store, {read.begin(), read.end()});
  EXPECT_EQ(job1.map_total().records_in, surviving.size());
  std::size_t reported = 0;
  for (const std::size_t s : result.partition_report.sizes) reported += s;
  EXPECT_EQ(reported, surviving.size());
  EXPECT_LT(reported, store.size());
}

TEST_F(StreamedReads, ReportEqualsAnalysisOfTheSurvivingRowsInBothModes) {
  const data::BlockStoreSource store(path_);
  part::PartitionerOptions popts;
  popts.num_partitions = 16;
  const part::PartitionerPtr partitioner = part::make_partitioner(part::Scheme::kAngular, popts);
  partitioner->fit(store.sample(4096, 7));
  core::MRSkylineConfig config;
  config.prepared_partitioner = partitioner.get();
  for (const mr::ExecutionMode mode : {mr::ExecutionMode::kSequential, mr::ExecutionMode::kThreads}) {
    config.run_options.mode = mode;
    config.run_options.num_threads = 3;
    const test::RecordingSource source(store);
    const auto result = core::run_mr_skyline(source, config);
    // Threads may share a block across a split boundary; the set is what
    // must match.
    const auto read = source.job_reads();
    const std::set<std::size_t> blocks(read.begin(), read.end());
    EXPECT_EQ(blocks.size(), store.block_count() - result.partition_job.blocks_pruned);
    const part::PartitionReport expected =
        part::analyze_partitioning(*partitioner, rows_of(store, blocks));
    EXPECT_EQ(result.partition_report.sizes, expected.sizes);
    EXPECT_EQ(result.partition_report.non_empty, expected.non_empty);
    EXPECT_EQ(result.partition_report.largest, expected.largest);
    EXPECT_EQ(result.partition_report.balance_cv, expected.balance_cv);
    EXPECT_EQ(result.partition_report.prunable, expected.prunable);
    EXPECT_EQ(result.partition_report.pruned_points, expected.pruned_points);
  }
}

TEST_F(StreamedReads, SaltedRunCountsOnlySurvivingRows) {
  // Salting needs partition sizes before job 1, so it makes one counting
  // pass of its own — over the surviving blocks only.
  const data::BlockStoreSource store(path_);
  const test::RecordingSource source(store);
  core::MRSkylineConfig config;
  config.salt_oversized_partitions = true;
  const auto result = core::run_mr_skyline(source, config);
  const std::size_t survivors = store.block_count() - result.partition_job.blocks_pruned;
  const auto read = source.job_reads();
  ASSERT_EQ(read.size(), 2 * survivors);
  const std::vector<std::size_t> counting(read.begin(), read.begin() + survivors);
  const std::vector<std::size_t> mapping(read.begin() + survivors, read.end());
  EXPECT_TRUE(strictly_ascending(counting));
  EXPECT_EQ(counting, mapping);

  const auto unsalted = core::run_mr_skyline(store, core::MRSkylineConfig{});
  EXPECT_EQ(sorted_ids(result.skyline), sorted_ids(unsalted.skyline));
}

/// A streamed, always-spilling run whose first local-skyline call hands
/// every job-1 spill file to `damage` — after the map stage has written them
/// all and the first non-empty reduce bucket has been read back, before the
/// rest are.
class PipelineSpill : public StreamedReads {
 protected:
  using Damage = std::function<void(const fs::path& file, std::size_t rows_read)>;

  /// Runs the job and returns the RuntimeError message it failed with ("" if
  /// it succeeded). The spill directory must be empty afterwards either way.
  static std::string run_damaged(const std::function<void(const fs::path&)>& damage) {
    Damage adapted;
    if (damage) adapted = [&damage](const fs::path& file, std::size_t) { damage(file); };
    return run_spilling(adapted, /*map_tasks=*/0);
  }

  /// Same, with `map_tasks` map tasks (0 = the default), also handing
  /// `damage` the row count of the bucket that was read back.
  static std::string run_spilling(const Damage& damage, std::size_t map_tasks) {
    const fs::path dir =
        fs::path(testing::TempDir()) / ("pipeline-spill-" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    const data::BlockStoreSource source(path_);
    core::MRSkylineConfig config;
    config.num_map_tasks = map_tasks;
    config.run_options.shuffle_spill_bytes = 1;
    config.run_options.spill_dir = dir.string();
    bool damaged = false;
    config.local_skyline_override = [&](const data::PointSet& points,
                                        skyline::SkylineStats* stats) {
      if (!damaged && damage) {
        for (const auto& entry : fs::directory_iterator(dir)) {
          damage(entry.path(), points.size());
        }
      }
      damaged = true;
      return skyline::compute_skyline(points, skyline::Algorithm::kBnl, stats);
    };
    std::string message;
    try {
      const auto result = core::run_mr_skyline(source, config);
      EXPECT_GT(result.partition_job.shuffle_spill_files, 0u);
    } catch (const RuntimeError& e) {
      message = e.what();
    }
    EXPECT_TRUE(damaged);
    EXPECT_TRUE(fs::is_empty(dir)) << "spill files outlived the run";
    fs::remove_all(dir);
    return message;
  }
};

/// Job-1 spill span layout: each row's coordinates, then each row's u32 id.
constexpr std::size_t kSpilledRowBytes = 8 * kDim + 4;

TEST_F(PipelineSpill, UndamagedSpillSucceeds) { EXPECT_EQ(run_damaged({}), ""); }

TEST_F(PipelineSpill, TruncatedSpillFileFailsTyped) {
  const std::string message = run_damaged(
      [](const fs::path& file) { fs::resize_file(file, fs::file_size(file) / 2); });
  EXPECT_NE(message.find("truncated shuffle spill file"), std::string::npos) << message;
}

TEST_F(PipelineSpill, FileCutByOneByteFailsTyped) {
  const std::string message = run_damaged([](const fs::path& file) {
    ASSERT_EQ(fs::file_size(file) % kSpilledRowBytes, 0u);
    fs::resize_file(file, fs::file_size(file) - 1);
  });
  EXPECT_NE(message.find("truncated shuffle spill file"), std::string::npos) << message;
}

TEST_F(PipelineSpill, FileCutAtASpanBoundaryFailsTyped) {
  // One map task writes one file, and the first reduce call sees all of the
  // first non-empty bucket: its span ends the file's first bytes. Cutting
  // there leaves the spans already read whole and drops every later one.
  const std::string message = run_spilling(
      [](const fs::path& file, std::size_t rows_read) {
        const std::uintmax_t boundary = rows_read * kSpilledRowBytes;
        ASSERT_LT(boundary, fs::file_size(file)) << "no later span to cut";
        fs::resize_file(file, boundary);
      },
      /*map_tasks=*/1);
  EXPECT_NE(message.find("truncated shuffle spill file"), std::string::npos) << message;
}

TEST_F(PipelineSpill, FileRemovedBeforeReadBackFailsTyped) {
  const std::string message = run_damaged([](const fs::path& file) { fs::remove(file); });
  EXPECT_NE(message.find("cannot reopen shuffle spill file"), std::string::npos) << message;
}

}  // namespace
}  // namespace mrsky
