// The row job (src/mapreduce/row_job.hpp): records are (key, u32 id, dim
// doubles), kept per map task and reduce bucket as flat rows. A bucket must
// reach its reduce as every map task's rows in map-task order, each task's
// in emission order, with or without spilling and in both execution modes;
// a failed attempt's rows must never reach it; and the shuffle is charged
// 8 + 4 + 8·dim bytes per record, as run_job charged the pipeline's records.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/mapreduce/row_job.hpp"

namespace mrsky::mr {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kDim = 2;
constexpr std::size_t kRows = 301;
constexpr std::size_t kKeys = 5;

/// Input row r as the row (r, -r) with id 7r + 1.
std::vector<double> row_of(std::size_t r) {
  return {static_cast<double>(r), -static_cast<double>(r)};
}
data::PointId id_of(std::size_t r) { return static_cast<data::PointId>(7 * r + 1); }

/// Keys row r goes to, in emission order: r mod 5, and for even rows also
/// 3r mod 5 (twice to the same key when r is a multiple of 5).
std::vector<std::size_t> keys_of(std::size_t r) {
  std::vector<std::size_t> keys{r % kKeys};
  if (r % 2 == 0) keys.push_back((3 * r) % kKeys);
  return keys;
}

/// Seven map tasks over kRows rows; a reduce returns its bucket unchanged.
RowJobConfig echo_job() {
  RowJobConfig job;
  job.name = "echo";
  job.num_map_tasks = 7;
  job.num_reduce_tasks = kKeys;
  job.dim = kDim;
  job.map_fn = [](std::size_t r, RowEmitter& out, TaskContext& ctx) {
    ctx.charge_work(1);
    for (const std::size_t key : keys_of(r)) out.emit(key, row_of(r), id_of(r));
  };
  job.reduce_fn = [](std::size_t, const data::PointSet& rows, TaskContext& ctx) {
    ctx.charge_work(rows.size());
    return rows;
  };
  return job;
}

/// What reduce task k must see: the rows emitted to k, in input order.
std::vector<data::PointSet> expected_buckets() {
  std::vector<data::PointSet> buckets(kKeys, data::PointSet(kDim));
  for (std::size_t r = 0; r < kRows; ++r) {
    for (const std::size_t key : keys_of(r)) buckets[key].push_back(row_of(r), id_of(r));
  }
  return buckets;
}

fs::path spill_dir(const std::string& name) {
  const fs::path dir = fs::path(testing::TempDir()) / (name + "-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Every metric but the measured walls and the spilled bytes.
void expect_same_metrics(const JobMetrics& a, const JobMetrics& b) {
  const auto same_tasks = [](const std::vector<TaskMetrics>& x,
                             const std::vector<TaskMetrics>& y) {
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t t = 0; t < x.size(); ++t) {
      EXPECT_EQ(x[t].records_in, y[t].records_in) << "task " << t;
      EXPECT_EQ(x[t].records_out, y[t].records_out) << "task " << t;
      EXPECT_EQ(x[t].work_units, y[t].work_units) << "task " << t;
      EXPECT_EQ(x[t].attempts, y[t].attempts) << "task " << t;
      EXPECT_EQ(x[t].wasted_records, y[t].wasted_records) << "task " << t;
      EXPECT_EQ(x[t].failure_events.size(), y[t].failure_events.size()) << "task " << t;
    }
  };
  same_tasks(a.map_tasks, b.map_tasks);
  same_tasks(a.reduce_tasks, b.reduce_tasks);
  EXPECT_EQ(a.shuffle_records, b.shuffle_records);
  EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes);
  EXPECT_EQ(a.routed_records, b.routed_records);
}

TEST(RowJob, BucketsArriveInMapTaskThenEmissionOrder) {
  const auto expected = expected_buckets();
  const auto reference = run_row_job(echo_job(), kRows);
  EXPECT_EQ(reference.output, expected);
  for (const ExecutionMode mode : {ExecutionMode::kSequential, ExecutionMode::kThreads}) {
    for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{1}}) {
      const fs::path dir = spill_dir("row-job-order");
      RunOptions opts;
      opts.mode = mode;
      opts.num_threads = 3;
      opts.shuffle_spill_bytes = budget;
      opts.spill_dir = dir.string();
      const auto run = run_row_job(echo_job(), kRows, opts);
      EXPECT_EQ(run.output, expected) << "budget " << budget;
      expect_same_metrics(run.metrics, reference.metrics);
      EXPECT_EQ(run.metrics.shuffle_spill_files, budget > 0 ? 7u : 0u);
      EXPECT_TRUE(fs::is_empty(dir));
      fs::remove_all(dir);
    }
  }
}

TEST(RowJob, ShuffleChargesKeyIdAndCoordinatesPerRecord) {
  const fs::path dir = spill_dir("row-job-bytes");
  RunOptions opts;
  opts.shuffle_spill_bytes = 1;
  opts.spill_dir = dir.string();
  const auto run = run_row_job(echo_job(), kRows, opts);
  std::uint64_t records = 0;
  for (const data::PointSet& bucket : expected_buckets()) records += bucket.size();
  EXPECT_EQ(run.metrics.shuffle_records, records);
  EXPECT_EQ(run.metrics.shuffle_bytes, records * (8 + 4 + 8 * kDim));
  // The spill holds each row's id and coordinates: its key is its bucket.
  EXPECT_EQ(run.metrics.shuffle_spilled_bytes, records * (4 + 8 * kDim));
  fs::remove_all(dir);
}

TEST(RowJob, FailedAttemptsLeaveNoRows) {
  const auto expected = expected_buckets();
  for (const ExecutionMode mode : {ExecutionMode::kSequential, ExecutionMode::kThreads}) {
    for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{1}}) {
      const fs::path dir = spill_dir("row-job-faults");
      RunOptions opts;
      opts.mode = mode;
      opts.num_threads = 3;
      opts.task_failure_probability = 0.5;
      opts.max_task_attempts = 40;
      opts.shuffle_spill_bytes = budget;
      opts.spill_dir = dir.string();
      const auto run = run_row_job(echo_job(), kRows, opts);
      EXPECT_EQ(run.output, expected) << "budget " << budget;
      std::uint64_t wasted = 0;
      for (const TaskMetrics& t : run.metrics.map_tasks) wasted += t.wasted_records;
      EXPECT_GT(wasted, 0u) << "no map attempt failed part-way";
      fs::remove_all(dir);
    }
  }
}

TEST(RowJob, CombinerRunsOncePerNonEmptyBucketAfterRouting) {
  RowJobConfig job = echo_job();
  std::uint64_t calls = 0;
  job.combine_fn = [&calls](std::size_t, const data::PointSet& rows, TaskContext& ctx) {
    ++calls;
    ctx.charge_work(1);
    data::PointSet first(kDim);
    first.push_back(rows.point(0), rows.id(0));
    return first;
  };
  const auto run = run_row_job(job, kRows);
  const auto plain = run_row_job(echo_job(), kRows);
  // Routing counts the map output before the combiner rewrites it.
  EXPECT_EQ(run.metrics.routed_records, plain.metrics.routed_records);
  EXPECT_EQ(calls, 7u * kKeys);  // every task's share reaches every key here
  EXPECT_EQ(run.metrics.shuffle_records, calls);
  for (std::size_t k = 0; k < kKeys; ++k) {
    EXPECT_EQ(run.output[k].size(), 7u) << "key " << k;  // one row per map task
    EXPECT_EQ(run.metrics.reduce_tasks[k].records_in, 7u);
  }
  for (const TaskMetrics& m : run.metrics.map_tasks) EXPECT_EQ(m.records_out, kKeys);
}

TEST(RowJob, EmptyBucketRunsNoReduce) {
  RowJobConfig job = echo_job();
  job.num_reduce_tasks = kKeys + 2;  // keys 5 and 6 receive nothing
  std::vector<std::size_t> reduced;
  job.reduce_fn = [&reduced](std::size_t key, const data::PointSet& rows, TaskContext&) {
    reduced.push_back(key);
    return rows;
  };
  const auto run = run_row_job(job, kRows);
  EXPECT_EQ(reduced, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  ASSERT_EQ(run.output.size(), kKeys + 2);
  EXPECT_TRUE(run.output[kKeys].empty());
  EXPECT_EQ(run.metrics.reduce_tasks[kKeys + 1].records_in, 0u);
  EXPECT_EQ(run.metrics.routed_records[kKeys + 1], 0u);
}

TEST(RowJob, KeyPastTheReduceTasksFailsTyped) {
  RowJobConfig job = echo_job();
  job.map_fn = [](std::size_t r, RowEmitter& out, TaskContext&) {
    out.emit(r == 40 ? kKeys : r % kKeys, row_of(r), id_of(r));
  };
  // Without fault handling the first throwing record aborts the job.
  EXPECT_THROW((void)run_row_job(job, kRows), InvalidArgument);
  RunOptions retrying;
  retrying.task_failure_probability = 0.01;
  EXPECT_THROW((void)run_row_job(job, kRows, retrying), RuntimeError);

  // In skip-bad-records mode the row is isolated like any throwing record.
  RunOptions skipping;
  skipping.skip_bad_records = true;
  const auto run = run_row_job(job, kRows, skipping);
  std::uint64_t skipped = 0;
  for (const TaskMetrics& m : run.metrics.map_tasks) skipped += m.records_skipped;
  EXPECT_EQ(skipped, 1u);
  EXPECT_EQ(run.metrics.shuffle_records, kRows - 1);
}

}  // namespace
}  // namespace mrsky::mr
