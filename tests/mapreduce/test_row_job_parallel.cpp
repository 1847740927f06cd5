// The row job under kThreads and the persistent RunOptions::pool:
// determinism across execution modes, pool reuse, exception propagation out
// of map and reduce functions running on the pool, and the named counters
// tasks keep in their TaskContext.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>

#include "src/common/error.hpp"
#include "src/common/thread_pool.hpp"
#include "src/mapreduce/row_job.hpp"
#include "tests/support/echo_job.hpp"

namespace mrsky::mr {
namespace {

using namespace test;

/// echo_job that counts, per task, the rows it maps ("map.records") and the
/// even ones among them ("map.even"), and the buckets ("reduce.groups") and
/// rows ("reduce.values") it reduces; a combine keeps every other row.
RowJobConfig counting_job() {
  RowJobConfig job = echo_job();
  job.map_fn = [map = job.map_fn](std::size_t r, RowEmitter& out, TaskContext& ctx) {
    ctx.increment("map.records");
    if (r % 2 == 0) ctx.increment("map.even");
    map(r, out, ctx);
  };
  job.combine_fn = [](std::size_t, const data::PointSet& rows, TaskContext& ctx) {
    ctx.increment("combine.groups");
    data::PointSet kept(kDim);
    for (std::size_t i = 0; i < rows.size(); i += 2) kept.push_back(rows.point(i), rows.id(i));
    return kept;
  };
  job.reduce_fn = [reduce = job.reduce_fn](std::size_t key, const data::PointSet& rows,
                                           TaskContext& ctx) {
    ctx.increment("reduce.groups");
    ctx.increment("reduce.values", rows.size());
    return reduce(key, rows, ctx);
  };
  return job;
}

RunOptions threads(std::size_t workers) {
  RunOptions opts;
  opts.mode = ExecutionMode::kThreads;
  opts.num_threads = workers;
  return opts;
}

// ---- kThreads and the persistent pool --------------------------------------

TEST(ParallelShuffle, ThreadedRunIsBitwiseIdenticalToSequential) {
  const auto seq = run_row_job(counting_job(), kRows);
  for_each_setting({}, [&seq](const RunOptions& opts) {
    const auto run = run_row_job(counting_job(), kRows, opts);
    // Output: the same rows in the same order, not just the same multiset.
    EXPECT_EQ(run.output, seq.output);
    expect_same_metrics(run.metrics, seq.metrics);
    EXPECT_EQ(run.metrics.counter_totals(), seq.metrics.counter_totals());
  });
}

TEST(ParallelShuffle, ShuffleTimeIsRecorded) {
  for_each_setting({}, [](const RunOptions& opts) {
    const auto run = run_row_job(counting_job(), kRows, opts);
    EXPECT_GE(run.metrics.shuffle_ns, 0);
    // Reduce tasks saw exactly what crossed the shuffle.
    EXPECT_EQ(run.metrics.reduce_total().records_in, run.metrics.shuffle_records);
  });
}

TEST(ParallelShuffle, PersistentPoolIsReusedAcrossJobs) {
  common::ThreadPool pool(3);
  RunOptions opts;
  opts.mode = ExecutionMode::kThreads;
  opts.pool = &pool;
  const auto baseline = run_row_job(counting_job(), kRows);
  for (int round = 0; round < 3; ++round) {
    const auto run = run_row_job(counting_job(), kRows, opts);
    EXPECT_EQ(run.output, baseline.output) << "round " << round;
    EXPECT_EQ(run.metrics.counter_totals(), baseline.metrics.counter_totals());
  }
  EXPECT_EQ(pool.size(), 3u);  // the job never resized or replaced the pool
}

TEST(ParallelShuffle, ThrowingMapFnSurfacesExactlyOneException) {
  RowJobConfig job = counting_job();
  std::atomic<int> calls{0};
  job.map_fn = [&calls](std::size_t r, RowEmitter&, TaskContext&) {
    calls.fetch_add(1);
    if (r % 3 == 0) throw std::runtime_error("map blew up");
  };
  EXPECT_THROW((void)run_row_job(job, kRows, threads(4)), std::runtime_error);
  EXPECT_GT(calls.load(), 0);
}

TEST(ParallelShuffle, ThrowingReduceFnSurfacesExactlyOneException) {
  RowJobConfig job = counting_job();
  job.reduce_fn = [](std::size_t, const data::PointSet&, TaskContext&) -> data::PointSet {
    throw std::runtime_error("reduce blew up");
  };
  EXPECT_THROW((void)run_row_job(job, kRows, threads(4)), std::runtime_error);
}

TEST(ParallelShuffle, PersistentPoolSurvivesAFailedJob) {
  common::ThreadPool pool(3);
  RunOptions opts;
  opts.mode = ExecutionMode::kThreads;
  opts.pool = &pool;

  RowJobConfig doomed = counting_job();
  doomed.map_fn = [](std::size_t, RowEmitter&, TaskContext&) {
    throw std::runtime_error("boom");
  };
  EXPECT_THROW((void)run_row_job(doomed, kRows, opts), std::runtime_error);

  // The same pool immediately runs the next job to completion.
  const auto run = run_row_job(counting_job(), kRows, opts);
  const auto baseline = run_row_job(counting_job(), kRows);
  EXPECT_EQ(run.output, baseline.output);
  EXPECT_EQ(run.metrics.counter_totals(), baseline.metrics.counter_totals());
}

TEST(ParallelShuffle, OutOfRangePartitionThrowsUnderThreads) {
  RowJobConfig job = counting_job();
  job.map_fn = [](std::size_t r, RowEmitter& out, TaskContext&) {
    out.emit(kKeys, row_of(r), id_of(r));
  };
  EXPECT_THROW((void)run_row_job(job, kRows, threads(4)), InvalidArgument);
}

TEST(ParallelShuffle, FaultInjectionStaysDeterministicAcrossModes) {
  RunOptions seq;
  seq.task_failure_probability = 0.3;
  seq.max_task_attempts = 64;
  const auto a = run_row_job(counting_job(), kRows, seq);
  for_each_setting(seq, [&a](const RunOptions& opts) {
    const auto b = run_row_job(counting_job(), kRows, opts);
    EXPECT_EQ(b.output, a.output);
    expect_same_metrics(b.metrics, a.metrics);
  });
}

// ---- Named counters --------------------------------------------------------

TEST(Counters, AggregateAcrossMapTasks) {
  const auto totals = run_row_job(counting_job(), kRows).metrics.counter_totals();
  EXPECT_EQ(totals.at("map.records"), kRows);
  EXPECT_EQ(totals.at("map.even"), (kRows + 1) / 2);
  EXPECT_EQ(totals.at("combine.groups"), 7u * kKeys);  // every task reaches every key
}

TEST(Counters, AggregateAcrossReduceTasks) {
  const auto run = run_row_job(counting_job(), kRows);
  const auto totals = run.metrics.counter_totals();
  EXPECT_EQ(totals.at("reduce.groups"), kKeys);
  EXPECT_EQ(totals.at("reduce.values"), run.metrics.shuffle_records);
}

TEST(Counters, PerTaskCountersRecorded) {
  const auto run = run_row_job(counting_job(), kRows);
  std::uint64_t sum = 0;
  for (const TaskMetrics& task : run.metrics.map_tasks) {
    EXPECT_EQ(task.counters.at("map.records"), task.records_in);
    sum += task.counters.at("map.records");
  }
  EXPECT_EQ(sum, kRows);
  for (const TaskMetrics& task : run.metrics.reduce_tasks) {
    EXPECT_EQ(task.counters.at("reduce.values"), task.records_in);
  }
}

TEST(Counters, ThreadedMatchesSequential) {
  const auto seq = run_row_job(counting_job(), kRows);
  for_each_setting({}, [&seq](const RunOptions& opts) {
    const auto run = run_row_job(counting_job(), kRows, opts);
    EXPECT_EQ(run.metrics.counter_totals(), seq.metrics.counter_totals());
    expect_same_metrics(run.metrics, seq.metrics);
  });
}

TEST(Counters, AbsentCounterAbsentFromTotals) {
  const auto totals = run_row_job(counting_job(), kRows).metrics.counter_totals();
  EXPECT_FALSE(totals.contains("never.incremented"));
}

TEST(Counters, CustomDeltaAccumulates) {
  TaskContext ctx;
  ctx.increment("bytes", 100);
  ctx.increment("bytes", 23);
  EXPECT_EQ(ctx.counters().at("bytes"), 123u);
}

TEST(Counters, TaskMetricsMergeAddsCounters) {
  TaskMetrics a;
  a.counters["x"] = 1;
  TaskMetrics b;
  b.counters["x"] = 2;
  b.counters["y"] = 5;
  a += b;
  EXPECT_EQ(a.counters.at("x"), 3u);
  EXPECT_EQ(a.counters.at("y"), 5u);
}

TEST(TaskContext, AccumulatesWork) {
  TaskContext ctx;
  ctx.charge_work(5);
  ctx.charge_work(7);
  EXPECT_EQ(ctx.work_units(), 12u);
}

}  // namespace
}  // namespace mrsky::mr
