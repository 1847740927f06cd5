// Failure handling in the row job, Hadoop 0.20's task model: injected
// mid-task crashes retried from the split with their waste measured, user
// functions that throw on a record (job abort, or skip-bad-records
// isolation), and cooperative cancellation, which fault handling must never
// mistake for a bad record.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/sync.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/trace.hpp"
#include "src/mapreduce/cluster.hpp"
#include "src/mapreduce/row_job.hpp"
#include "tests/support/echo_job.hpp"

namespace mrsky::mr {
namespace {

using namespace test;

RunOptions injecting(double probability) {
  RunOptions opts;
  opts.task_failure_probability = probability;
  opts.max_task_attempts = 64;  // never abort
  return opts;
}

std::uint64_t total_attempts(const std::vector<TaskMetrics>& tasks) {
  std::uint64_t attempts = 0;
  for (const TaskMetrics& t : tasks) attempts += t.attempts;
  return attempts;
}

/// echo_job whose map function throws std::domain_error on the rows `bad`
/// names and emits the rest.
RowJobConfig bad_rows_job(bool (*bad)(std::size_t)) {
  RowJobConfig job = echo_job();
  job.map_fn = [bad, map = job.map_fn](std::size_t r, RowEmitter& out, TaskContext& ctx) {
    if (bad(r)) throw std::domain_error("bad row " + std::to_string(r));
    map(r, out, ctx);
  };
  return job;
}

// ---- Injected attempt failures ---------------------------------------------

TEST(FaultInjection, ZeroProbabilityMeansSingleAttempts) {
  for_each_setting({}, [](const RunOptions& opts) {
    const auto run = run_row_job(echo_job(), kRows, opts);
    for (const TaskMetrics& t : run.metrics.map_tasks) EXPECT_EQ(t.attempts, 1u);
    for (const TaskMetrics& t : run.metrics.reduce_tasks) EXPECT_EQ(t.attempts, 1u);
    EXPECT_TRUE(run.metrics.failure_report().empty());
  });
}

TEST(FaultInjection, OutputUnaffectedByRetries) {
  for_each_setting(injecting(0.4), [](const RunOptions& opts) {
    EXPECT_EQ(run_row_job(echo_job(), kRows, opts).output, expected_buckets());
  });
}

TEST(FaultInjection, RetriesAreRecorded) {
  const auto run = run_row_job(echo_job(), kRows, injecting(0.5));
  // 12 tasks at p = 0.5 expect ~24 attempts; assert well above the minimum.
  EXPECT_GT(total_attempts(run.metrics.map_tasks) + total_attempts(run.metrics.reduce_tasks),
            12u);
}

TEST(FaultInjection, DeterministicAcrossRuns) {
  for_each_setting(injecting(0.3), [](const RunOptions& opts) {
    const auto a = run_row_job(echo_job(), kRows, opts);
    const auto b = run_row_job(echo_job(), kRows, opts);
    expect_same_metrics(a.metrics, b.metrics);
  });
}

TEST(FaultInjection, SeedChangesFailurePattern) {
  RunOptions other_seed = injecting(0.5);
  other_seed.failure_seed = 999;
  const auto a = run_row_job(echo_job(), kRows, injecting(0.5));
  const auto b = run_row_job(echo_job(), kRows, other_seed);
  // Different seeds almost surely give different attempt patterns at p = 0.5
  // over 7 map tasks; equality would mean the seed is ignored.
  bool any_diff = false;
  for (std::size_t t = 0; t < a.metrics.map_tasks.size(); ++t) {
    any_diff = any_diff || a.metrics.map_tasks[t].attempts != b.metrics.map_tasks[t].attempts;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultInjection, ExhaustedAttemptsAbortTheJob) {
  RunOptions doomed;
  doomed.task_failure_probability = 1.0;  // every attempt fails
  doomed.max_task_attempts = 3;
  EXPECT_THROW((void)run_row_job(echo_job(), kRows, doomed), RuntimeError);
}

TEST(FaultInjection, ThreadedMatchesSequential) {
  RunOptions seq = injecting(0.4);
  RunOptions par = seq;
  par.mode = ExecutionMode::kThreads;
  par.num_threads = 4;
  const auto a = run_row_job(echo_job(), kRows, seq);
  const auto b = run_row_job(echo_job(), kRows, par);
  EXPECT_EQ(a.output, b.output);
  expect_same_metrics(a.metrics, b.metrics);
}

TEST(FaultInjection, MidTaskWasteIsMeasured) {
  for_each_setting(injecting(0.5), [](const RunOptions& opts) {
    const auto run = run_row_job(echo_job(), kRows, opts);
    const FailureReport report = run.metrics.failure_report();
    ASSERT_GT(report.tasks_retried, 0u);
    ASSERT_FALSE(report.events.empty());
    // A failed attempt executes a strict prefix of its split, so a task's
    // waste is the sum of its events' processed counts, and every injected
    // event dies before finishing the split.
    std::uint64_t wasted = 0;
    for (const auto* tasks : {&run.metrics.map_tasks, &run.metrics.reduce_tasks}) {
      for (const TaskMetrics& t : *tasks) {
        std::uint64_t from_events = 0;
        for (const TaskFailureEvent& e : t.failure_events) {
          EXPECT_TRUE(e.injected);
          if (t.records_in > 0) {
            EXPECT_LT(e.records_processed, t.records_in);
          }
          from_events += e.records_processed;
        }
        EXPECT_EQ(t.wasted_records, from_events);
        EXPECT_EQ(t.failure_events.size(), t.attempts - 1);
        wasted += t.wasted_records;
      }
    }
    EXPECT_EQ(report.wasted_records, wasted);
  });
}

TEST(FaultInjection, ExceptionsPropagateUnchangedWhenFaultsAreOff) {
  const RowJobConfig job = bad_rows_job([](std::size_t r) { return r == 13; });
  for_each_setting({}, [&job](const RunOptions& opts) {
    EXPECT_THROW((void)run_row_job(job, kRows, opts), std::domain_error);
  });
}

TEST(FaultInjection, ReduceAbortNamesThePhase) {
  RowJobConfig job = echo_job();
  job.reduce_fn = [](std::size_t, const data::PointSet&, TaskContext&) -> data::PointSet {
    throw std::runtime_error("reduce always dies");
  };
  RunOptions opts;
  opts.task_failure_probability = 1e-12;  // engage fault handling, never inject
  opts.max_task_attempts = 3;
  try {
    (void)run_row_job(job, kRows, opts);
    FAIL() << "expected the job to abort";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("reduce task"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("3 attempts"), std::string::npos) << e.what();
  }
}

TEST(FaultInjection, ThreadedMatchesSequentialWithSharedPoolAndReport) {
  common::ThreadPool pool(4);
  RunOptions seq = injecting(0.4);
  RunOptions par = seq;
  par.mode = ExecutionMode::kThreads;
  par.pool = &pool;
  const auto a = run_row_job(echo_job(), kRows, seq);
  const auto b = run_row_job(echo_job(), kRows, par);
  EXPECT_EQ(a.output, b.output);
  const FailureReport ra = a.metrics.failure_report();
  const FailureReport rb = b.metrics.failure_report();
  EXPECT_EQ(ra.tasks_retried, rb.tasks_retried);
  EXPECT_EQ(ra.wasted_records, rb.wasted_records);
  EXPECT_EQ(ra.wasted_work_units, rb.wasted_work_units);
  expect_same_metrics(a.metrics, b.metrics);
}

TEST(FaultInjection, RetriesRaiseSimulatedCost) {
  const auto clean = run_row_job(echo_job(), kRows);
  const auto retried = run_row_job(echo_job(), kRows, injecting(0.5));
  ClusterModel model;
  model.servers = 2;
  EXPECT_GT(simulate_job(retried.metrics, model).total_seconds(),
            simulate_job(clean.metrics, model).total_seconds());
}

// ---- Skip-bad-records mode -------------------------------------------------

TEST(SkipBadRecords, MapBadRecordIsIsolated) {
  const auto bad = [](std::size_t r) { return r == 13; };
  RunOptions skipping;
  skipping.skip_bad_records = true;
  for_each_setting(skipping, [&bad](const RunOptions& opts) {
    const auto run = run_row_job(bad_rows_job(bad), kRows, opts);
    EXPECT_EQ(run.output, expected_buckets(kRows, bad));
    const FailureReport report = run.metrics.failure_report();
    EXPECT_EQ(report.records_skipped, 1u);
    // Isolation costs one discarded attempt: the first throw fails the task,
    // the retry skips the quarantined row.
    EXPECT_EQ(report.tasks_retried, 1u);
    ASSERT_EQ(report.events.size(), 1u);
    EXPECT_FALSE(report.events[0].injected);
    EXPECT_EQ(report.events[0].phase, 0u);
  });
}

TEST(SkipBadRecords, ReduceBadGroupIsIsolated) {
  RowJobConfig job = echo_job();
  job.reduce_fn = [](std::size_t key, const data::PointSet& rows, TaskContext&) {
    if (key == 2) throw std::domain_error("bad bucket 2");
    return rows;
  };
  RunOptions skipping;
  skipping.skip_bad_records = true;
  for_each_setting(skipping, [&job](const RunOptions& opts) {
    const auto run = run_row_job(job, kRows, opts);
    auto expected = expected_buckets();
    expected[2] = data::PointSet(kDim);  // bucket 2 is quarantined
    EXPECT_EQ(run.output, expected);
    const FailureReport report = run.metrics.failure_report();
    EXPECT_EQ(report.records_skipped, 1u);
    ASSERT_EQ(report.events.size(), 1u);
    EXPECT_EQ(report.events[0].phase, 1u);
  });
}

TEST(SkipBadRecords, SkipBudgetExhaustionAbortsTheJob) {
  RowJobConfig job = bad_rows_job([](std::size_t r) { return r % 10 == 0; });
  job.num_map_tasks = 1;  // all ten bad rows land in one task's budget
  RunOptions opts;
  opts.skip_bad_records = true;
  opts.max_skipped_records = 2;
  try {
    (void)run_row_job(job, 100, opts);
    FAIL() << "expected the skip budget to abort the job";
  } catch (const RuntimeError& e) {
    EXPECT_NE(std::string(e.what()).find("max_skipped_records"), std::string::npos) << e.what();
  }
}

TEST(SkipBadRecords, LargeBudgetSurvivesManyBadRecords) {
  const auto bad = [](std::size_t r) { return r % 10 == 0; };
  RowJobConfig job = bad_rows_job(bad);
  job.num_map_tasks = 1;
  RunOptions opts;
  opts.skip_bad_records = true;
  opts.max_skipped_records = 16;
  const auto run = run_row_job(job, 100, opts);
  EXPECT_EQ(run.output, expected_buckets(100, bad));
  EXPECT_EQ(run.metrics.failure_report().records_skipped, 10u);
}

TEST(SkipBadRecords, DeterministicAcrossExecutionModes) {
  const RowJobConfig job = bad_rows_job([](std::size_t r) { return r % 17 == 3; });
  RunOptions skipping;
  skipping.skip_bad_records = true;
  const auto reference = run_row_job(job, kRows, skipping);
  for_each_setting(skipping, [&](const RunOptions& opts) {
    const auto run = run_row_job(job, kRows, opts);
    EXPECT_EQ(run.output, reference.output);
    expect_same_metrics(run.metrics, reference.metrics);
  });
}

// ---- Cancellation under fault handling -------------------------------------

TEST(RowJob, CancellationUnderFaultHandlingIsNeitherSkippedNorRetried) {
  // The map function cancels the job's token at row 100 and then polls it
  // on every row, as a nested engine call would. The stop must abort the job
  // typed: never isolated as a bad row, never failing an attempt that is
  // then retried.
  constexpr std::size_t kCancelRow = 100;
  RunOptions skipping;
  skipping.skip_bad_records = true;
  for (const RunOptions& faults : {skipping, injecting(0.3)}) {
    for_each_setting(faults, [](RunOptions opts) {
      common::CancellationToken token = common::CancellationToken::make();
      common::TraceRecorder trace;
      opts.cancel = token;
      opts.trace = &trace;
      RowJobConfig job = echo_job();
      job.map_fn = [token, map = job.map_fn](std::size_t r, RowEmitter& out,
                                               TaskContext& ctx) mutable {
        if (r == kCancelRow) token.request_cancel();
        token.throw_if_stopped("echo map");
        map(r, out, ctx);
      };
      try {
        (void)run_row_job(job, kRows, opts);
        ADD_FAILURE() << "expected the cancellation to abort the job";
      } catch (const QueryCancelled& e) {
        // Sequentially, the stop is the one the map function threw.
        if (opts.mode == ExecutionMode::kSequential) {
          EXPECT_EQ(std::string(e.what()), "cancelled at echo map");
        }
      }
      // Every failed attempt is an injected crash; an attempt the stop cut
      // short is its task's last.
      const std::vector<common::TraceSpan> spans = trace.spans();
      std::map<std::uint64_t, std::vector<const common::TraceSpan*>> attempts_by_task;
      for (const common::TraceSpan& span : spans) {
        if (span.category == "attempt") attempts_by_task[span.parent].push_back(&span);
      }
      for (const auto& [task, attempts] : attempts_by_task) {
        for (std::size_t i = 0; i < attempts.size(); ++i) {
          const common::TraceArg* status = attempts[i]->find_arg("status");
          if (status == nullptr) {
            EXPECT_EQ(i + 1, attempts.size()) << "a cancelled attempt was retried";
          } else if (status->value == "failed") {
            EXPECT_EQ(attempts[i]->arg_int("injected"), 1) << "an attempt failed on the stop";
          }
          EXPECT_EQ(attempts[i]->find_arg("records_skipped"), nullptr) << "a row was skipped";
        }
      }
    });
  }
}

}  // namespace
}  // namespace mrsky::mr
