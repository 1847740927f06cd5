// The task machinery of the MapReduce engine, and the options a job runs
// under.
//
// The engine is the row job (row_job.hpp): a faithful miniature of the
// Hadoop execution model the paper ran on, for records that are points.
//
//   input splits ──map──▶ (combine) ──shuffle──▶ reduce ──▶ output
//
// This header holds what every phase of it shares: RunOptions, the
// contiguous splits (detail::split_offsets), the attempt loop with fault
// injection and skip-bad-records (detail::run_task_attempts), the per-task
// bookkeeping (detail::finish_task), the pool a job runs on
// (detail::EnginePool, detail::for_each_task), and the TaskContext user
// functions charge work and counters to.
//
// Execution is sequential or thread-pooled (ExecutionMode). Under kThreads
// a job either borrows the caller's persistent RunOptions::pool (reused
// across jobs — run_mr_skyline threads one pool through job 1 and every
// merge round) or creates one private pool per job, never one per phase.
// Results and metrics are identical in both modes — bitwise, except for the
// measured wall-clock fields (TaskMetrics::wall_ns, JobMetrics::shuffle_ns)
// — because tasks are pure, shuffle metrics are summed in task order, and
// outputs are gathered in task order, never completion order. The cluster
// *simulation* (cluster.hpp) is a separate concern that consumes the metrics
// afterwards — so experiments are reproducible on any host, including this
// repository's single-core CI.
//
// Fault tolerance mirrors Hadoop 0.20's task model: attempts can fail
// mid-task (deterministically injected via RunOptions), discarding their
// partial output and re-executing from the split, and user functions that
// throw on a record either exhaust the task's attempts (job abort) or — in
// skip-bad-records mode — get the offending records isolated. Everything
// failure handling costs is measured into TaskMetrics / FailureReport; the
// node-loss dimension (a dead server taking completed map outputs with it)
// lives in the cluster simulator.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/sync.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/trace.hpp"
#include "src/mapreduce/metrics.hpp"

namespace mrsky::mr {

enum class ExecutionMode { kSequential, kThreads };

struct RunOptions {
  ExecutionMode mode = ExecutionMode::kSequential;
  /// Worker count for kThreads; 0 means hardware concurrency. Ignored when
  /// `pool` is set (the pool's size wins).
  std::size_t num_threads = 0;

  /// Optional caller-owned persistent pool for kThreads. When set, every
  /// job runs on it and no pool is constructed internally — the way to
  /// amortise thread start-up across a multi-job pipeline. The pool must
  /// outlive every job that uses these options. When null, each job creates
  /// one private pool for its duration.
  common::ThreadPool* pool = nullptr;

  /// Fault injection: probability that any task attempt fails and is retried
  /// (Hadoop task-retry semantics). Whether an attempt fails — and how far
  /// into the task it gets — is a deterministic hash of (job name, phase,
  /// task index, attempt, failure_seed), so runs are reproducible and
  /// identical under kSequential and kThreads. A failing attempt really
  /// executes a prefix of its records, then dies mid-task: its partial
  /// emitter/shard output is discarded and the task re-executes from its
  /// split. The lost prefix is measured, not imputed — see
  /// TaskMetrics::wasted_records / wasted_work_units and
  /// JobMetrics::failure_report(); the cluster simulator charges it.
  /// 0 disables injection.
  double task_failure_probability = 0.0;
  /// Attempts per task before the whole job aborts (mapred.*.max.attempts).
  std::size_t max_task_attempts = 4;
  std::uint64_t failure_seed = 0xFA11;

  /// Hadoop's skip-bad-records mode (mapred.skip.*): a map/reduce function
  /// throwing on a record fails the attempt once, then re-executions isolate
  /// throwing records in place instead of aborting the job; isolated records
  /// are counted in TaskMetrics::records_skipped. Without it, a throwing
  /// record deterministically fails every attempt, so the job aborts once
  /// max_task_attempts is exhausted (Hadoop's default behaviour).
  bool skip_bad_records = false;
  /// Abort anyway once a single task isolates more than this many records —
  /// mass skipping means the input, not single records, is broken.
  std::size_t max_skipped_records = 16;

  /// Span-level tracing (src/common/trace.hpp). When set, the engine records
  /// a span per job, per task, per task attempt (failed attempts included,
  /// with `attempt`/`wasted_records` args) and per shuffle bucket into the
  /// recorder, which must outlive every engine call using these options.
  /// Null (the default) disables tracing at zero cost: every instrumentation
  /// site is a single pointer test.
  common::TraceRecorder* trace = nullptr;

  /// Shuffle spill budget in bytes; 0 disables spilling. A map task whose
  /// shuffle volume projects the job past this budget (task bytes × map
  /// tasks > budget — a per-task-local, scheduling-independent test) writes
  /// each reduce bucket's rows to a temporary spill file as raw coordinate
  /// and id bytes, one write per bucket, freeing each bucket as soon as it
  /// is written. Each reduce task then reads every map task's span of its
  /// bucket back with one read, in map-task order. Output content and order
  /// are exactly what the in-memory shuffle produces — spilling is purely a
  /// memory/IO trade, accounted in JobMetrics::shuffle_spilled_bytes /
  /// shuffle_spill_files.
  std::uint64_t shuffle_spill_bytes = 0;
  /// Directory for spill files; empty = std::filesystem::temp_directory_path().
  std::string spill_dir;

  /// Cooperative cancellation/deadline (ISSUE 7). Task loops poll the token
  /// at split boundaries — every phase entry, every shuffle bucket, and every
  /// kCancelPollStride input units inside a task attempt — and abort the job
  /// with mrsky::QueryCancelled when it signals. The partial output of a
  /// cancelled job is discarded by unwinding; nothing is committed. The
  /// default token is inert, so batch/CLI callers pay one pointer test per
  /// poll site.
  common::CancellationToken cancel;
};

/// How many input units a task attempt executes between cancellation polls.
/// An armed poll is two atomic loads plus a steady_clock read (~tens of ns),
/// so striding keeps the overhead invisible even for trivial map functions
/// while still bounding cancellation latency to a few thousand records.
inline constexpr std::size_t kCancelPollStride = 1024;

/// Cost-accounting handle. User functions charge the abstract work they do
/// (dominance tests, for the skyline jobs); the cluster simulator turns the
/// total into simulated seconds. Real elapsed time is measured separately by
/// the engine, so charging work is only needed for simulation fidelity.
class TaskContext {
 public:
  void charge_work(std::uint64_t units) noexcept { work_units_ += units; }
  [[nodiscard]] std::uint64_t work_units() const noexcept { return work_units_; }

  /// Hadoop-style named counter, aggregated per job in JobMetrics. Each task
  /// owns its context, so incrementing is race-free even under kThreads.
  void increment(const std::string& counter, std::uint64_t delta = 1) {
    counters_[counter] += delta;
  }
  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters() const noexcept {
    return counters_;
  }

 private:
  std::uint64_t work_units_ = 0;
  std::map<std::string, std::uint64_t> counters_;
};

namespace detail {

/// Deterministic attempt-failure decision (splitmix-style avalanche).
inline bool attempt_fails(const RunOptions& opts, const std::string& job, int phase,
                          std::size_t task, std::size_t attempt) {
  if (opts.task_failure_probability <= 0.0) return false;
  std::uint64_t h = opts.failure_seed ^ (0x9e3779b97f4a7c15ULL * (task + 1));
  for (char c : job) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  h ^= static_cast<std::uint64_t>(phase) << 32;
  h ^= attempt * 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < opts.task_failure_probability;
}

/// Any fault-handling feature on? Off means the zero-overhead happy path.
inline bool faults_enabled(const RunOptions& opts) noexcept {
  return opts.task_failure_probability > 0.0 || opts.skip_bad_records;
}

/// Deterministic mid-task failure point: how many of its `executable` input
/// units a failing attempt completes before it dies. An independent hash
/// stream from attempt_fails (different salt and finalizer), so the failure
/// offset is not correlated with the failure decision.
inline std::uint64_t failure_prefix(const RunOptions& opts, const std::string& job, int phase,
                                    std::size_t task, std::uint64_t attempt,
                                    std::uint64_t executable) {
  if (executable == 0) return 0;
  std::uint64_t h = (opts.failure_seed + 0x0FF5E7u) ^ (0xc2b2ae3d27d4eb4fULL * (task + 1));
  for (char c : job) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  h ^= static_cast<std::uint64_t>(phase) << 32;
  h ^= (attempt + 1) * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  const auto prefix = static_cast<std::uint64_t>(u * static_cast<double>(executable));
  return std::min(prefix, executable - 1);  // a failing attempt never finishes
}

/// What one task's attempt loop reports back to its phase.
struct TaskAttemptOutcome {
  std::uint64_t attempts = 1;
  std::uint64_t records_skipped = 0;
  std::uint64_t wasted_records = 0;
  std::uint64_t wasted_work_units = 0;
  std::vector<TaskFailureEvent> events;
};

/// Shared attempt loop of the map and reduce phases. Runs a task body of
/// `num_units` input units under the fault policy in RunOptions and returns
/// what failure handling cost.
///
/// `reset()` must discard any partial output of the previous attempt.
/// `process(i, ctx, may_fail)` must execute input unit i (a map row, or a
/// reduce bucket) and return how many input records the unit consumed;
/// `may_fail` is true while the attempt can still be discarded, so a body
/// that consumes its input destructively must work on copies until it turns
/// false.
///
/// Failure semantics (the Hadoop 0.20 task model):
/// * An injected failing attempt executes a deterministic prefix of its
///   units (failure_prefix), then dies mid-task; reset() discards its
///   partial output, its consumed records/work are added to the wasted
///   counters, and the task re-executes from its input.
/// * A user function throwing marks the unit bad. Without skip_bad_records
///   the attempt fails and the deterministic re-throw exhausts
///   max_task_attempts — job abort, Hadoop's default, whose message ends
///   with what the last attempt threw. With it, the first throw fails the
///   attempt and arms skipping mode; re-executions isolate throwing units in
///   place (counted in records_skipped, capped by max_skipped_records) and
///   the job completes without them.
template <typename ResetFn, typename ProcessFn>
TaskAttemptOutcome run_task_attempts(const RunOptions& opts, const std::string& job, int phase,
                                     std::size_t task, std::size_t num_units,
                                     TaskContext& final_ctx, const ResetFn& reset,
                                     const ProcessFn& process) {
  TaskAttemptOutcome outcome;
  const char* phase_name = phase == 0 ? "map" : "reduce";
  const char* poll_site = phase == 0 ? "map task" : "reduce task";
  if (!faults_enabled(opts)) {
    common::ScopedSpan span(opts.trace, "attempt", "attempt");
    span.arg("attempt", 0);
    TaskContext ctx;
    for (std::size_t i = 0; i < num_units; ++i) {
      if (i % kCancelPollStride == 0) opts.cancel.throw_if_stopped(poll_site);
      process(i, ctx, /*may_fail=*/false);
    }
    span.arg("status", "ok");
    final_ctx = std::move(ctx);
    return outcome;
  }
  std::vector<std::size_t> skipped;  // sorted unit indices isolated as bad
  bool skipping = false;             // armed by the first bad record
  std::string last_throw;            // what the last attempt threw, if a throw failed it
  for (std::uint64_t attempt = 0;; ++attempt) {
    if (attempt >= opts.max_task_attempts) {
      MRSKY_FAIL(std::string(phase_name) + " task " + std::to_string(task) + " of job '" + job +
                 "' failed " + std::to_string(opts.max_task_attempts) + " attempts" +
                 (last_throw.empty() ? "" : " (last attempt: " + last_throw + ")"));
    }
    const bool injected = attempt_fails(opts, job, phase, task, attempt);
    const std::uint64_t executable = num_units - skipped.size();
    const std::uint64_t limit =
        injected ? failure_prefix(opts, job, phase, task, attempt, executable) : executable;
    common::ScopedSpan span(opts.trace, "attempt", "attempt");
    span.arg("attempt", attempt);
    reset();
    TaskContext ctx;
    // Discardable until neither an injected crash nor a first bad record can
    // fail it any more.
    const bool may_fail = injected || (opts.skip_bad_records && !skipping);
    std::uint64_t units_done = 0;
    std::uint64_t records_done = 0;
    bool failed = false;
    for (std::size_t i = 0; i < num_units && !failed; ++i) {
      // Cancellation is polled OUTSIDE the try below: a stopping query must
      // abort the job, never be mistaken for a bad record and skipped.
      if (i % kCancelPollStride == 0) opts.cancel.throw_if_stopped(poll_site);
      if (!skipped.empty() && std::binary_search(skipped.begin(), skipped.end(), i)) continue;
      if (injected && units_done >= limit) {
        outcome.events.push_back(TaskFailureEvent{static_cast<std::uint32_t>(phase), task,
                                                  attempt, records_done, ctx.work_units(),
                                                  /*injected=*/true, 0});
        failed = true;
        break;
      }
      try {
        records_done += process(i, ctx, may_fail);
        ++units_done;
      } catch (const QueryCancelled&) {
        // A user function (or nested engine call) observed the stop signal:
        // propagate the typed abort instead of treating it as a bad record.
        throw;
      } catch (const std::exception& e) {
        if (opts.skip_bad_records) {
          if (skipped.size() >= opts.max_skipped_records) {
            MRSKY_FAIL(std::string(phase_name) + " task " + std::to_string(task) + " of job '" +
                       job + "' exceeded max_skipped_records = " +
                       std::to_string(opts.max_skipped_records) + " (last bad record: " +
                       e.what() + ")");
          }
          skipped.insert(std::lower_bound(skipped.begin(), skipped.end(), i), i);
          outcome.events.push_back(TaskFailureEvent{static_cast<std::uint32_t>(phase), task,
                                                    attempt, records_done,
                                                    skipping ? 0 : ctx.work_units(),
                                                    /*injected=*/false, i});
          if (!skipping) {
            // First bad record: Hadoop fails the attempt and re-runs the
            // task in skipping mode; later throws are isolated in place.
            skipping = true;
            failed = true;
          }
        } else {
          outcome.events.push_back(TaskFailureEvent{static_cast<std::uint32_t>(phase), task,
                                                    attempt, records_done, ctx.work_units(),
                                                    /*injected=*/false, i});
          failed = true;
        }
        if (failed && attempt + 1 == opts.max_task_attempts) last_throw = e.what();
      }
    }
    if (injected && !failed) {
      // Nothing left to execute before the crash point (e.g. every unit was
      // isolated): the attempt still dies before committing its output.
      outcome.events.push_back(TaskFailureEvent{static_cast<std::uint32_t>(phase), task, attempt,
                                                records_done, ctx.work_units(),
                                                /*injected=*/true, 0});
      failed = true;
    }
    if (failed) {
      outcome.wasted_records += records_done;
      outcome.wasted_work_units += ctx.work_units();
      span.arg("status", "failed");
      span.arg("injected", injected ? 1 : 0);
      span.arg("wasted_records", records_done);
      span.arg("wasted_work_units", ctx.work_units());
      continue;  // re-execute from the split
    }
    outcome.attempts = attempt + 1;
    outcome.records_skipped = skipped.size();
    span.arg("status", "ok");
    span.arg("records", records_done);
    if (!skipped.empty()) span.arg("records_skipped", skipped.size());
    final_ctx = std::move(ctx);
    return outcome;
  }
}

/// Records what a finished task cost — its context's work and counters, its
/// attempt outcome and its wall time — on its metrics and its span. The
/// caller has set records_in and records_out.
inline void finish_task(TaskMetrics& m, const TaskContext& ctx, TaskAttemptOutcome&& outcome,
                        std::int64_t wall_ns, common::ScopedSpan& span) {
  m.work_units = ctx.work_units();
  m.wall_ns = wall_ns;
  m.attempts = outcome.attempts;
  m.records_skipped = outcome.records_skipped;
  m.wasted_records = outcome.wasted_records;
  m.wasted_work_units = outcome.wasted_work_units;
  m.failure_events = std::move(outcome.events);
  m.counters = ctx.counters();
  span.arg("records_in", m.records_in);
  span.arg("records_out", m.records_out);
  span.arg("attempts", m.attempts);
  if (m.wasted_records > 0) span.arg("wasted_records", m.wasted_records);
}

/// The pool one job runs on: the caller's persistent RunOptions::pool when
/// provided, else a private pool created once per job (not once per phase)
/// and destroyed on return. Sequential mode never creates a pool and
/// get() returns nullptr.
class EnginePool {
 public:
  explicit EnginePool(const RunOptions& opts) {
    if (opts.mode != ExecutionMode::kThreads) return;
    if (opts.pool != nullptr) {
      pool_ = opts.pool;
      return;
    }
    const std::size_t threads =
        opts.num_threads == 0 ? common::ThreadPool::default_concurrency() : opts.num_threads;
    owned_ = std::make_unique<common::ThreadPool>(threads);
    pool_ = owned_.get();
  }

  [[nodiscard]] common::ThreadPool* get() const noexcept { return pool_; }

 private:
  common::ThreadPool* pool_ = nullptr;
  std::unique_ptr<common::ThreadPool> owned_;
};

/// Evenly-sized contiguous split boundaries: returns num_splits+1 offsets
/// with offsets[s] = floor(n * s / num_splits), computed incrementally so the
/// n * s product (which overflows std::size_t for very large inputs) never
/// materialises. `acc` tracks (s * remainder) mod num_splits; each wrap of
/// the accumulator is exactly one floor increment, so the boundaries are
/// bit-identical to the direct formula.
inline std::vector<std::size_t> split_offsets(std::size_t n, std::size_t num_splits) {
  std::vector<std::size_t> offsets(num_splits + 1, 0);
  const std::size_t base = n / num_splits;
  const std::size_t rem = n % num_splits;
  std::size_t acc = 0;
  for (std::size_t s = 1; s <= num_splits; ++s) {
    acc += rem;
    std::size_t extra = 0;
    if (acc >= num_splits) {
      acc -= num_splits;
      extra = 1;
    }
    offsets[s] = offsets[s - 1] + base + extra;
  }
  return offsets;
}

/// Runs `fn(i)` for i in [0, count), on `pool` when given, else inline.
inline void for_each_task(std::size_t count, common::ThreadPool* pool,
                          const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  pool->parallel_for(count, fn);
}

}  // namespace detail

}  // namespace mrsky::mr
