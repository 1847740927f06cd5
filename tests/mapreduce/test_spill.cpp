// Shuffle spill in the row job, and map-side routing counts in the generic
// engine.
//
// A spilling row-job map task writes each reduce bucket's rows as raw
// coordinate and id bytes with one write; a reduce task reads each (map
// task, bucket) span back with one read. The output must equal the
// in-memory shuffle's, and a damaged spill file must fail the job with a
// typed error, never a read past the span. JobMetrics::routed_records counts
// what the map functions routed to each bucket, before any combine and for
// committed attempts only.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/mapreduce/job.hpp"
#include "src/mapreduce/row_job.hpp"

namespace mrsky::mr {
namespace {

namespace fs = std::filesystem;

using Values = std::vector<std::int32_t>;
using RoutingJob = JobConfig<int, int, int, Values, int, std::int64_t>;

constexpr std::size_t kDim = 3;
constexpr std::size_t kInputRows = 200;
/// Bytes a spilled row takes: its id and its coordinates.
constexpr std::size_t kSpilledRowBytes = 4 + 8 * kDim;

/// Five map tasks fanning every input row out to 4 of 23 keys over four
/// buckets.
RoutingJob routing_job() {
  RoutingJob job;
  job.name = "routing";
  job.num_map_tasks = 5;
  job.num_reduce_tasks = 4;
  job.map_fn = [](const int& k, const int& v, Emitter<int, Values>& out, TaskContext&) {
    for (int i = 0; i < 4; ++i) out.emit((k * 7 + i) % 23, Values{v, i, k});
  };
  job.reduce_fn = [](const int& key, std::vector<Values>& values,
                     Emitter<int, std::int64_t>& out, TaskContext&) {
    std::int64_t total = 0;
    for (const Values& v : values) total += v[0] * 3 + v[1] - v[2];
    out.emit(key, total);
  };
  job.partition_fn = [](const int& key, std::size_t buckets) {
    return static_cast<std::size_t>(key) % buckets;
  };
  return job;
}

std::vector<KV<int, int>> numbers(int n) {
  std::vector<KV<int, int>> input;
  for (int i = 0; i < n; ++i) input.push_back({i, 5 * i + 2});
  return input;
}

/// Five map tasks sending each input row r to bucket (7r) mod 4 as the row
/// (r, 2r, r²) with id 1000 + r; a reduce returns its bucket's rows with the
/// first coordinate negated. `on_reduce` runs at the start of every reduce.
RowJobConfig spill_row_job(std::function<void()> on_reduce = {}) {
  RowJobConfig job;
  job.name = "spill";
  job.num_map_tasks = 5;
  job.num_reduce_tasks = 4;
  job.dim = kDim;
  job.map_fn = [](std::size_t r, RowEmitter& out, TaskContext&) {
    const double x = static_cast<double>(r);
    const double row[kDim] = {x, 2 * x, x * x};
    out.emit((7 * r) % 4, row, static_cast<data::PointId>(1000 + r));
  };
  job.reduce_fn = [on_reduce](std::size_t, const data::PointSet& rows,
                              TaskContext&) -> data::PointSet {
    if (on_reduce) on_reduce();
    std::vector<double> values(rows.raw().begin(), rows.raw().end());
    for (std::size_t i = 0; i < rows.size(); ++i) values[i * kDim] = -values[i * kDim];
    return data::PointSet(kDim, std::move(values),
                          std::vector<data::PointId>(rows.ids().begin(), rows.ids().end()));
  };
  return job;
}

/// A fresh, empty spill directory private to one test.
fs::path spill_dir(const std::string& name) {
  const fs::path dir =
      fs::path(testing::TempDir()) / (name + "-" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

RunOptions spilling(const fs::path& dir) {
  RunOptions opts;
  opts.shuffle_spill_bytes = 1;  // every map task spills
  opts.spill_dir = dir.string();
  return opts;
}

TEST(ShuffleSpill, SpilledJobMatchesInMemoryJob) {
  const auto reference = run_row_job(spill_row_job(), kInputRows);
  for (const ExecutionMode mode : {ExecutionMode::kSequential, ExecutionMode::kThreads}) {
    const fs::path dir = spill_dir("spill-identity");
    RunOptions opts = spilling(dir);
    opts.mode = mode;
    opts.num_threads = 3;
    const auto spilled = run_row_job(spill_row_job(), kInputRows, opts);
    EXPECT_EQ(spilled.output, reference.output);
    EXPECT_EQ(spilled.metrics.shuffle_records, reference.metrics.shuffle_records);
    EXPECT_EQ(spilled.metrics.shuffle_bytes, reference.metrics.shuffle_bytes);
    EXPECT_EQ(spilled.metrics.routed_records, reference.metrics.routed_records);
    EXPECT_EQ(spilled.metrics.shuffle_spill_files, 5u);
    // The files hold exactly the rows' ids and coordinates: nothing more.
    EXPECT_EQ(spilled.metrics.shuffle_spilled_bytes, kInputRows * kSpilledRowBytes);
    EXPECT_TRUE(fs::is_empty(dir)) << "spill files outlived the job";
    fs::remove_all(dir);
  }
  EXPECT_EQ(reference.metrics.shuffle_spill_files, 0u);
  EXPECT_EQ(reference.metrics.shuffle_spilled_bytes, 0u);
}

TEST(ShuffleSpill, TruncatedSpillFileFailsTyped) {
  // Every file is halved once the map stage has written them all and the
  // first bucket has been read back.
  const fs::path dir = spill_dir("spill-truncated");
  bool done = false;
  const RowJobConfig job = spill_row_job([&dir, &done] {
    if (done) return;
    done = true;
    for (const auto& entry : fs::directory_iterator(dir)) {
      fs::resize_file(entry.path(), fs::file_size(entry.path()) / 2);
    }
  });
  std::string message;
  try {
    (void)run_row_job(job, kInputRows, spilling(dir));
  } catch (const RuntimeError& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("truncated shuffle spill file"), std::string::npos) << message;
  EXPECT_TRUE(done);
  EXPECT_TRUE(fs::is_empty(dir)) << "a failed job must still remove its spill files";
  fs::remove_all(dir);
}

TEST(RoutedRecords, CountMapOutputPerBucketBeforeCombine) {
  RoutingJob job = routing_job();
  const auto input = numbers(200);
  std::vector<std::uint64_t> expected(job.num_reduce_tasks, 0);
  for (const auto& kv : input) {
    for (int i = 0; i < 4; ++i) expected[static_cast<std::size_t>((kv.key * 7 + i) % 23) % 4] += 1;
  }

  const auto plain = run_job(job, input);
  EXPECT_EQ(plain.metrics.routed_records, expected);
  for (std::size_t b = 0; b < expected.size(); ++b) {
    EXPECT_EQ(plain.metrics.reduce_tasks[b].records_in, expected[b]) << "bucket " << b;
  }

  // A combiner shrinks what crosses the shuffle, not what was routed.
  job.combine_fn = [](const int& key, std::vector<Values>& values, Emitter<int, Values>& out,
                      TaskContext&) { out.emit(key, values.front()); };
  RunOptions faulty;
  faulty.task_failure_probability = 0.5;
  faulty.max_task_attempts = 20;
  for (const ExecutionMode mode : {ExecutionMode::kSequential, ExecutionMode::kThreads}) {
    faulty.mode = mode;
    const auto combined = run_job(job, input, faulty);
    EXPECT_EQ(combined.metrics.routed_records, expected);
    EXPECT_LT(combined.metrics.shuffle_records, 800u);
    std::uint64_t retries = 0;
    for (const auto& t : combined.metrics.map_tasks) retries += t.attempts - 1;
    EXPECT_GT(retries, 0u) << "the fault injection never retried a map task";
  }
}

}  // namespace
}  // namespace mrsky::mr
