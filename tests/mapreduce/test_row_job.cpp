// The row job (src/mapreduce/row_job.hpp): records are (key, u32 id, dim
// doubles), kept per map task and reduce bucket as flat rows. A bucket must
// reach its reduce as every map task's rows in map-task order, each task's
// in emission order, with or without spilling and in both execution modes;
// a failed attempt's rows must never reach it; and the shuffle is charged
// 8 + 4 + 8·dim bytes per record. Beside those: the job model's routing,
// grouping and per-phase metrics, its validation, and its edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/error.hpp"
#include "src/mapreduce/row_job.hpp"
#include "tests/support/echo_job.hpp"

namespace mrsky::mr {
namespace {

namespace fs = std::filesystem;
using namespace test;

/// A combine that keeps the first row of its bucket.
data::PointSet first_row(std::size_t, const data::PointSet& rows, TaskContext&) {
  data::PointSet first(kDim);
  first.push_back(rows.point(0), rows.id(0));
  return first;
}

/// A reduce that sums its bucket into one row, (Σx, Σy), with its key as id.
data::PointSet sum_rows(std::size_t key, const data::PointSet& rows, TaskContext&) {
  double sums[kDim] = {0.0, 0.0};
  for (std::size_t i = 0; i < rows.size(); ++i) {
    for (std::size_t a = 0; a < kDim; ++a) sums[a] += rows.point(i)[a];
  }
  data::PointSet out(kDim);
  out.push_back(sums, static_cast<data::PointId>(key));
  return out;
}

/// Rows echo_job emits over kRows rows: each row once, even rows twice.
constexpr std::uint64_t kEmitted = kRows + (kRows + 1) / 2;

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
  try {
    (void)run_row_job(job, kRows, retrying);
  } catch (const RuntimeError& e) {
    // The abort names what failed the task's last attempt.
    EXPECT_NE(std::string(e.what()).find("row job emitted key 5 but has 5 reduce tasks"),
              std::string::npos)
        << e.what();
  }

  // In skip-bad-records mode the row is isolated like any throwing record.
  RunOptions skipping;
  skipping.skip_bad_records = true;
  const auto run = run_row_job(job, kRows, skipping);
  std::uint64_t skipped = 0;
  for (const TaskMetrics& m : run.metrics.map_tasks) skipped += m.records_skipped;
  EXPECT_EQ(skipped, 1u);
  EXPECT_EQ(run.metrics.shuffle_records, kRows - 1);
}

TEST(RowJob, ErrorTextNamesItsHeaderFromTheRepoRoot) {
  // Every target includes from the repository root, so a header's error
  // names the same repo-relative file from every translation unit.
  RowJobConfig job = echo_job();
  job.map_fn = [](std::size_t r, RowEmitter& out, TaskContext&) {
    out.emit(r == 40 ? kKeys : r % kKeys, row_of(r), id_of(r));
  };
  try {
    (void)run_row_job(job, kRows);
    FAIL() << "expected the emit to throw";
  } catch (const InvalidArgument& e) {
    EXPECT_TRUE(std::string_view(e.what()).starts_with("src/mapreduce/row_job.hpp:")) << e.what();
  }
}

// ---- The job model: routing, grouping, per-phase metrics, validation -------

TEST(Job, EachKeyReducedExactlyOnce) {
  for_each_setting({}, [](const RunOptions& opts) {
    std::vector<std::atomic<int>> calls(kKeys);
    RowJobConfig job = echo_job();
    job.reduce_fn = [&calls](std::size_t key, const data::PointSet& rows, TaskContext&) {
      calls[key].fetch_add(1);
      return rows;
    };
    (void)run_row_job(job, kRows, opts);
    for (std::size_t k = 0; k < kKeys; ++k) EXPECT_EQ(calls[k].load(), 1) << "key " << k;
  });
}

TEST(Job, CombinerPreservesResultAndShrinksShuffle) {
  RowJobConfig plain = echo_job();
  plain.reduce_fn = sum_rows;
  RowJobConfig combined = plain;
  combined.combine_fn = sum_rows;
  for_each_setting({}, [&](const RunOptions& opts) {
    const auto a = run_row_job(plain, kRows, opts);
    const auto b = run_row_job(combined, kRows, opts);
    EXPECT_EQ(b.output, a.output);
    EXPECT_LT(b.metrics.shuffle_records, a.metrics.shuffle_records);
  });
}

TEST(Job, ThreadedExecutionMatchesSequential) {
  RunOptions threaded;
  threaded.mode = ExecutionMode::kThreads;
  threaded.num_threads = 4;
  const auto seq = run_row_job(echo_job(), kRows);
  const auto par = run_row_job(echo_job(), kRows, threaded);
  EXPECT_EQ(par.output, seq.output);
  EXPECT_EQ(par.metrics.shuffle_records, seq.metrics.shuffle_records);
}

TEST(Job, MetricsCountRecordsPerPhase) {
  const auto run = run_row_job(echo_job(), kRows);
  const JobMetrics& m = run.metrics;
  ASSERT_EQ(m.map_tasks.size(), 7u);
  ASSERT_EQ(m.reduce_tasks.size(), kKeys);
  EXPECT_EQ(m.map_total().records_in, kRows);
  EXPECT_EQ(m.map_total().records_out, kEmitted);
  EXPECT_EQ(m.shuffle_records, kEmitted);
  EXPECT_EQ(m.reduce_total().records_in, kEmitted);
  EXPECT_EQ(m.reduce_total().records_out, kEmitted);
  EXPECT_EQ(m.map_total().work_units, kRows);         // one unit charged per row
  EXPECT_EQ(m.reduce_total().work_units, kEmitted);   // one per row reduced
}

TEST(Job, EmptyInputYieldsEmptyOutput) {
  for_each_setting({}, [](const RunOptions& opts) {
    const auto run = run_row_job(echo_job(), 0, opts);
    ASSERT_EQ(run.output.size(), kKeys);
    for (const data::PointSet& out : run.output) EXPECT_TRUE(out.empty());
    EXPECT_EQ(run.metrics.shuffle_records, 0u);
    EXPECT_EQ(run.metrics.shuffle_spill_files, 0u);
  });
}

TEST(Job, MoreMapTasksThanRecordsIsFine) {
  RowJobConfig job = echo_job();
  job.num_map_tasks = 64;
  for_each_setting({}, [&job](const RunOptions& opts) {
    const auto run = run_row_job(job, 10, opts);
    EXPECT_EQ(run.output, expected_buckets(10));
    EXPECT_EQ(run.metrics.map_total().records_in, 10u);
  });
}

TEST(Job, CustomPartitionerRoutesKeys) {
  // The map function picks each row's bucket. Everything to bucket 1:
  // bucket 0 must see zero records.
  RowJobConfig job = echo_job();
  job.num_reduce_tasks = 2;
  job.map_fn = [](std::size_t r, RowEmitter& out, TaskContext&) {
    out.emit(1, row_of(r), id_of(r));
  };
  const auto run = run_row_job(job, kRows);
  EXPECT_EQ(run.metrics.reduce_tasks[0].records_in, 0u);
  EXPECT_EQ(run.metrics.reduce_tasks[1].records_in, kRows);
  EXPECT_TRUE(run.output[0].empty());
  EXPECT_EQ(run.output[1].size(), kRows);
}

TEST(Job, MissingMapFnThrows) {
  RowJobConfig job = echo_job();
  job.map_fn = nullptr;
  EXPECT_THROW((void)run_row_job(job, kRows), InvalidArgument);
}

TEST(Job, MissingReduceFnThrows) {
  RowJobConfig job = echo_job();
  job.reduce_fn = nullptr;
  EXPECT_THROW((void)run_row_job(job, kRows), InvalidArgument);
}

TEST(Job, ZeroTasksThrows) {
  RowJobConfig job = echo_job();
  job.num_map_tasks = 0;
  EXPECT_THROW((void)run_row_job(job, kRows), InvalidArgument);
  job.num_map_tasks = 1;
  job.num_reduce_tasks = 0;
  EXPECT_THROW((void)run_row_job(job, kRows), InvalidArgument);
  // Nor can a row have zero attributes.
  job.num_reduce_tasks = kKeys;
  job.dim = 0;
  EXPECT_THROW((void)run_row_job(job, kRows), InvalidArgument);
}

TEST(Job, ReduceSeesValuesGroupedByKey) {
  // Each reduce sees its key's rows, all of them, and no other key's.
  RowJobConfig job = echo_job();
  job.reduce_fn = [](std::size_t key, const data::PointSet& rows, TaskContext&) {
    EXPECT_FALSE(rows.empty());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto keys = keys_of(static_cast<std::size_t>(rows.point(i)[0]));
      EXPECT_NE(std::find(keys.begin(), keys.end(), key), keys.end()) << "key " << key;
    }
    return rows;
  };
  const auto run = run_row_job(job, kRows);
  EXPECT_EQ(run.metrics.reduce_total().records_in, kEmitted);
}

TEST(Job, DeterministicOutputOrder) {
  const auto a = run_row_job(echo_job(), kRows);
  const auto b = run_row_job(echo_job(), kRows);
  EXPECT_EQ(a.output, b.output);
}

// ---- Edge cases ------------------------------------------------------------

TEST(JobEdgeCases, MapperEmittingNothingIsFine) {
  RowJobConfig job = echo_job();
  job.map_fn = [](std::size_t, RowEmitter&, TaskContext&) {};
  const auto run = run_row_job(job, kRows);
  for (const data::PointSet& out : run.output) EXPECT_TRUE(out.empty());
  EXPECT_EQ(run.metrics.shuffle_records, 0u);
  EXPECT_EQ(run.metrics.map_total().records_in, kRows);
}

TEST(JobEdgeCases, ReducerEmittingNothingIsFine) {
  RowJobConfig job = echo_job();
  job.reduce_fn = [](std::size_t, const data::PointSet&, TaskContext&) {
    return data::PointSet(kDim);
  };
  const auto run = run_row_job(job, kRows);
  for (const data::PointSet& out : run.output) EXPECT_TRUE(out.empty());
  EXPECT_EQ(run.metrics.reduce_total().records_in, kEmitted);
  EXPECT_EQ(run.metrics.reduce_total().records_out, 0u);
}

TEST(JobEdgeCases, MapperFanOut) {
  // One input row explodes into many shuffled rows.
  RowJobConfig job = echo_job();
  job.map_fn = [](std::size_t r, RowEmitter& out, TaskContext&) {
    for (std::size_t i = 0; i < 50; ++i) out.emit((r * 50 + i) % kKeys, row_of(r), id_of(r));
  };
  const auto run = run_row_job(job, 2);
  EXPECT_EQ(run.metrics.map_total().records_out, 100u);
  EXPECT_EQ(run.metrics.shuffle_records, 100u);
  std::size_t total = 0;
  for (const data::PointSet& out : run.output) total += out.size();
  EXPECT_EQ(total, 100u);
}

TEST(JobEdgeCases, SingleMapSingleReduce) {
  RowJobConfig job = echo_job();
  job.num_map_tasks = 1;
  job.num_reduce_tasks = 1;
  job.map_fn = [](std::size_t r, RowEmitter& out, TaskContext&) {
    out.emit(0, row_of(r), id_of(r));
  };
  const auto run = run_row_job(job, 25);
  ASSERT_EQ(run.output.size(), 1u);
  EXPECT_EQ(run.output[0].size(), 25u);
  EXPECT_EQ(run.metrics.map_tasks.size(), 1u);
  EXPECT_EQ(run.metrics.reduce_tasks.size(), 1u);
}

TEST(JobEdgeCases, CombinerSeesOnlyItsOwnMapOutput) {
  // Each map task's combiner gets only that task's rows: with one key and 4
  // map tasks over 8 rows, each call receives the 2 rows of one split.
  RowJobConfig job = echo_job();
  job.num_map_tasks = 4;
  job.num_reduce_tasks = 1;
  job.map_fn = [](std::size_t r, RowEmitter& out, TaskContext&) {
    out.emit(0, row_of(r), id_of(r));
  };
  std::vector<std::size_t> combine_sizes;
  job.combine_fn = [&combine_sizes](std::size_t, const data::PointSet& rows, TaskContext&) {
    combine_sizes.push_back(rows.size());
    return rows;
  };
  (void)run_row_job(job, 8);
  EXPECT_EQ(combine_sizes, (std::vector<std::size_t>{2, 2, 2, 2}));
}

TEST(JobEdgeCases, OutOfRangePartitionFnThrows) {
  // The map function is the row job's partitioner: a bucket past the reduce
  // tasks must throw, in release builds too, never index out of bounds.
  RowJobConfig job = echo_job();
  job.map_fn = [](std::size_t r, RowEmitter& out, TaskContext&) {
    out.emit(r == 7 ? kKeys : r % kKeys, row_of(r), id_of(r));
  };
  EXPECT_THROW((void)run_row_job(job, 12), InvalidArgument);

  RunOptions threaded;
  threaded.mode = ExecutionMode::kThreads;
  threaded.num_threads = 4;
  EXPECT_THROW((void)run_row_job(job, 12, threaded), InvalidArgument);
}

TEST(JobEdgeCases, WayOutOfRangePartitionFnThrows) {
  RowJobConfig job = echo_job();
  job.map_fn = [](std::size_t r, RowEmitter& out, TaskContext&) {
    out.emit(std::size_t{1} << 20, row_of(r), id_of(r));
  };
  EXPECT_THROW((void)run_row_job(job, 1), InvalidArgument);
}

TEST(JobEdgeCases, SplitOffsetsMatchDirectFormulaOnSmallInputs) {
  for (std::size_t n : {0u, 1u, 7u, 100u, 101u}) {
    for (std::size_t splits : {1u, 2u, 3u, 8u, 13u}) {
      const auto offsets = detail::split_offsets(n, splits);
      ASSERT_EQ(offsets.size(), splits + 1);
      for (std::size_t s = 0; s <= splits; ++s) {
        EXPECT_EQ(offsets[s], n * s / splits) << "n=" << n << " splits=" << splits << " s=" << s;
      }
    }
  }
}

TEST(JobEdgeCases, SplitOffsetsSurviveHugeInputsWithoutOverflow) {
  // n * s overflows std::size_t for every s >= 2 here; the incremental
  // accumulator must still land on floor(n * s / splits) exactly.
  const std::size_t n = std::numeric_limits<std::size_t>::max() - 5;
  const std::size_t splits = 7;
  const auto offsets = detail::split_offsets(n, splits);
  ASSERT_EQ(offsets.size(), splits + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), n);
  const std::size_t base = n / splits;
  for (std::size_t s = 1; s <= splits; ++s) {
    EXPECT_TRUE(offsets[s] > offsets[s - 1]);
    const std::size_t width = offsets[s] - offsets[s - 1];
    EXPECT_TRUE(width == base || width == base + 1) << "s=" << s;
  }
}

// ---- Routing counts --------------------------------------------------------

TEST(RoutedRecords, CountMapOutputPerBucketBeforeCombine) {
  std::vector<std::uint64_t> expected;
  for (const data::PointSet& bucket : expected_buckets()) expected.push_back(bucket.size());
  const auto plain = run_row_job(echo_job(), kRows);
  EXPECT_EQ(plain.metrics.routed_records, expected);
  for (std::size_t b = 0; b < expected.size(); ++b) {
    EXPECT_EQ(plain.metrics.reduce_tasks[b].records_in, expected[b]) << "bucket " << b;
  }

  // A combiner shrinks what crosses the shuffle, not what was routed, and a
  // failed attempt routes nothing.
  RowJobConfig job = echo_job();
  job.combine_fn = first_row;
  RunOptions faulty;
  faulty.task_failure_probability = 0.5;
  faulty.max_task_attempts = 20;
  for_each_setting(faulty, [&](const RunOptions& opts) {
    const auto combined = run_row_job(job, kRows, opts);
    EXPECT_EQ(combined.metrics.routed_records, expected);
    EXPECT_LT(combined.metrics.shuffle_records, plain.metrics.shuffle_records);
    std::uint64_t retries = 0;
    for (const TaskMetrics& t : combined.metrics.map_tasks) retries += t.attempts - 1;
    EXPECT_GT(retries, 0u) << "the fault injection never retried a map task";
  });
}

}  // namespace
}  // namespace mrsky::mr
