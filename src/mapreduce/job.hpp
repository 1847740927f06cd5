// The MapReduce job engine.
//
// A faithful miniature of the Hadoop execution model the paper ran on:
//
//   input splits ──map──▶ (combine) ──shuffle/sort──▶ reduce ──▶ output
//
// * Input is split into `num_map_tasks` contiguous splits (HDFS blocks).
//   Input is read through a lightweight view (`size()`/`key(i)`/`value(i)`),
//   so callers can run jobs directly over columnar storage (e.g. a PointSet)
//   without materialising a vector<KV> copy; `std::vector<KV>` still works
//   out of the box.
// * Each map task applies `map_fn` per record, then — if a combiner is
//   configured — groups its own output by key and applies `combine_fn`
//   (Hadoop's map-side combine; its cost is charged to the map task), and
//   finally scatters its records into per-reduce-task shards (the map-side
//   partitioning Hadoop performs when writing spill files). `partition_fn`
//   therefore runs inside map tasks and must be pure/thread-safe.
// * The shuffle concatenates, per reduce bucket and in map-task order, the
//   shards every map task produced, then stable-sorts each bucket by key
//   unless it is already in key order (sort-merge grouping, requires
//   operator< on the mid key). Both the scatter and the concatenation run
//   in parallel under kThreads; the time spent building buckets is
//   recorded as JobMetrics::shuffle_ns.
// * Each reduce task applies `reduce_fn` once per key group.
//
// The skyline pipeline's jobs run on row_job.hpp instead: the same model and
// this file's attempt loop, splits and pool, for records that are points kept
// as flat rows. Only row jobs spill (RunOptions::shuffle_spill_bytes).
//
// Execution is sequential or thread-pooled (ExecutionMode). Under kThreads
// the engine either borrows the caller's persistent RunOptions::pool (reused
// across jobs — run_mr_skyline threads one pool through job 1 and every
// merge round) or creates one private pool per engine call, never one per
// phase. Results and metrics are identical in both modes — bitwise, except
// for the measured wall-clock fields (TaskMetrics::wall_ns,
// JobMetrics::shuffle_ns) — because tasks are pure, shuffle metrics are
// summed in task order, and outputs are gathered in task order, never
// completion order. The cluster *simulation* (cluster.hpp) is a separate
// concern that consumes the metrics afterwards — so experiments are
// reproducible on any host, including this repository's single-core CI.
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
#include <atomic>
#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/sync.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/timer.hpp"
#include "src/common/trace.hpp"
#include "src/mapreduce/keyvalue.hpp"
#include "src/mapreduce/metrics.hpp"

namespace mrsky::mr {

enum class ExecutionMode { kSequential, kThreads };

struct RunOptions {
  ExecutionMode mode = ExecutionMode::kSequential;
  /// Worker count for kThreads; 0 means hardware concurrency. Ignored when
  /// `pool` is set (the pool's size wins).
  std::size_t num_threads = 0;

  /// Optional caller-owned persistent pool for kThreads. When set, every
  /// engine call runs on it and no pool is constructed internally — the way
  /// to amortise thread start-up across a multi-job pipeline. The pool must
  /// outlive every engine call that uses these options. When null, each
  /// run_job/run_map_only call creates one private pool for its duration.
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

  /// Shuffle spill budget in bytes; 0 disables spilling. Only row jobs
  /// (row_job.hpp, the skyline pipeline's jobs) spill; run_job keeps its
  /// shuffle in memory. A map task whose shuffle volume projects the job
  /// past this budget (task bytes × map tasks > budget — a per-task-local,
  /// scheduling-independent test) writes each reduce bucket's rows to a
  /// temporary spill file as raw coordinate and id bytes, one write per
  /// bucket, freeing each bucket as soon as it is written. Each reduce task
  /// then reads every map task's span of its bucket back with one read, in
  /// map-task order. Output content and order are exactly what the
  /// in-memory shuffle produces — spilling is purely a memory/IO trade,
  /// accounted in JobMetrics::shuffle_spilled_bytes / shuffle_spill_files.
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

/// Shared attempt loop for all three phases (map-only, map and reduce of the
/// full engine). Runs a task body of `num_units` input units under the fault
/// policy in RunOptions and returns what failure handling cost.
///
/// `reset()` must discard any partial output of the previous attempt (fresh
/// emitter). `process(i, ctx, may_fail)` must execute input unit i (a map
/// record, or a reduce key group) and return how many input records the unit
/// consumed; `may_fail` is true while the attempt can still be discarded, so
/// bodies that consume their input destructively (the reduce value move)
/// must work on copies until it turns false.
///
/// Failure semantics (the Hadoop 0.20 task model):
/// * An injected failing attempt executes a deterministic prefix of its
///   units (failure_prefix), then dies mid-task; reset() discards its
///   partial output, its consumed records/work are added to the wasted
///   counters, and the task re-executes from its input.
/// * A user function throwing marks the unit bad. Without skip_bad_records
///   the attempt fails and the deterministic re-throw exhausts
///   max_task_attempts — job abort, Hadoop's default. With it, the first
///   throw fails the attempt and arms skipping mode; re-executions isolate
///   throwing units in place (counted in records_skipped, capped by
///   max_skipped_records) and the job completes without them.
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
  for (std::uint64_t attempt = 0;; ++attempt) {
    if (attempt >= opts.max_task_attempts) {
      MRSKY_FAIL(std::string(phase_name) + " task " + std::to_string(task) + " of job '" + job +
                 "' failed " + std::to_string(opts.max_task_attempts) + " attempts");
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

/// The pool one engine call runs on: the caller's persistent RunOptions::pool
/// when provided, else a private pool created once per call (not once per
/// phase) and destroyed on return. Sequential mode never creates a pool and
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

}  // namespace detail

/// The minimal read-only record-sequence interface the engine consumes:
/// `size()`, plus `key(i)`/`value(i)` whose results bind to the map
/// function's `const InK&`/`const InV&` parameters.
template <typename Input>
concept JobInput = requires(const Input& in, std::size_t i) {
  { in.size() } -> std::convertible_to<std::size_t>;
  in.key(i);
  in.value(i);
};

/// Adapts the classic vector-of-records input to the view interface.
template <typename K, typename V>
struct VectorInput {
  const std::vector<KV<K, V>>* records;

  [[nodiscard]] std::size_t size() const noexcept { return records->size(); }
  [[nodiscard]] const K& key(std::size_t i) const noexcept { return (*records)[i].key; }
  [[nodiscard]] const V& value(std::size_t i) const noexcept { return (*records)[i].value; }
};

template <typename InK, typename InV, typename MidK, typename MidV, typename OutK,
          typename OutV>
struct JobConfig {
  std::string name = "job";
  std::size_t num_map_tasks = 1;
  std::size_t num_reduce_tasks = 1;

  using MapFn = std::function<void(const InK&, const InV&, Emitter<MidK, MidV>&, TaskContext&)>;
  using CombineFn =
      std::function<void(const MidK&, std::vector<MidV>&, Emitter<MidK, MidV>&, TaskContext&)>;
  using ReduceFn =
      std::function<void(const MidK&, std::vector<MidV>&, Emitter<OutK, OutV>&, TaskContext&)>;
  using PartitionFn = std::function<std::size_t(const MidK&, std::size_t)>;
  using ValueBytesFn = std::function<std::size_t(const MidV&)>;

  MapFn map_fn;
  CombineFn combine_fn;  ///< optional map-side combine
  ReduceFn reduce_fn;
  /// Routes a mid key to a reduce bucket; default std::hash(key) % buckets.
  /// Runs inside map tasks, so it must be pure and thread-safe.
  PartitionFn partition_fn;
  /// Approximate payload size of a shuffled value; default sizeof(MidV).
  ValueBytesFn value_bytes_fn;
};

template <typename OutK, typename OutV>
struct JobResult {
  std::vector<KV<OutK, OutV>> output;
  JobMetrics metrics;
};

namespace detail {

/// Sorts records by key and invokes `fn(key, values)` per key group,
/// consuming the records. Requires operator< on K.
template <typename K, typename V, typename Fn>
void group_by_key(std::vector<KV<K, V>>& records, Fn&& fn) {
  std::stable_sort(records.begin(), records.end(),
                   [](const KV<K, V>& a, const KV<K, V>& b) { return a.key < b.key; });
  std::size_t i = 0;
  while (i < records.size()) {
    std::size_t j = i + 1;
    while (j < records.size() && !(records[i].key < records[j].key)) ++j;
    std::vector<V> values;
    values.reserve(j - i);
    for (std::size_t r = i; r < j; ++r) values.push_back(std::move(records[r].value));
    fn(records[i].key, values);
    i = j;
  }
}

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

/// A reduce-less job (Hadoop's numReduceTasks = 0): map output is the job
/// output, no shuffle, no sort. Used for pure transform/filter passes.
template <typename InK, typename InV, typename OutK, typename OutV>
struct MapOnlyConfig {
  std::string name = "map-only";
  std::size_t num_map_tasks = 1;
  std::function<void(const InK&, const InV&, Emitter<OutK, OutV>&, TaskContext&)> map_fn;
};

/// Executes a map-only job over any JobInput view: per-task metrics are
/// recorded exactly as in the full engine (including fault-injection
/// retries); shuffle counters stay 0.
template <typename InK, typename InV, typename OutK, typename OutV, JobInput Input>
JobResult<OutK, OutV> run_map_only(const MapOnlyConfig<InK, InV, OutK, OutV>& config,
                                   const Input& input, const RunOptions& opts = {}) {
  MRSKY_REQUIRE(static_cast<bool>(config.map_fn), "map-only job needs a map function");
  MRSKY_REQUIRE(config.num_map_tasks >= 1, "need at least one map task");

  JobResult<OutK, OutV> result;
  result.metrics.job_name = config.name;
  result.metrics.map_tasks.resize(config.num_map_tasks);

  common::ScopedSpan job_span(opts.trace, config.name, "job");
  job_span.arg("map_tasks", config.num_map_tasks);

  opts.cancel.throw_if_stopped("map-only job start");
  const detail::EnginePool pool(opts);
  const auto offsets = detail::split_offsets(input.size(), config.num_map_tasks);
  std::vector<std::vector<KV<OutK, OutV>>> outputs(config.num_map_tasks);
  detail::for_each_task(config.num_map_tasks, pool.get(), [&](std::size_t t) {
    common::ScopedSpan task_span(opts.trace, "map", "task");
    task_span.arg("job", config.name);
    task_span.arg("task", t);
    common::Timer timer;
    TaskContext ctx;
    Emitter<OutK, OutV> emitter;
    auto outcome = detail::run_task_attempts(
        opts, config.name, /*phase=*/0, t, offsets[t + 1] - offsets[t], ctx,
        [&emitter] { emitter = Emitter<OutK, OutV>{}; },
        [&](std::size_t i, TaskContext& attempt_ctx, bool /*may_fail*/) -> std::uint64_t {
          const std::size_t r = offsets[t] + i;
          config.map_fn(input.key(r), input.value(r), emitter, attempt_ctx);
          return 1;
        });
    outputs[t] = emitter.take();
    auto& m = result.metrics.map_tasks[t];
    m.records_in = offsets[t + 1] - offsets[t];
    m.records_out = outputs[t].size();
    detail::finish_task(m, ctx, std::move(outcome), timer.elapsed_ns(), task_span);
  });

  std::size_t total_out = 0;
  for (const auto& out : outputs) total_out += out.size();
  result.output.reserve(total_out);
  for (auto& out : outputs) {
    result.output.insert(result.output.end(), std::make_move_iterator(out.begin()),
                         std::make_move_iterator(out.end()));
  }
  return result;
}

/// Executes a map-only job over an in-memory record vector.
template <typename InK, typename InV, typename OutK, typename OutV>
JobResult<OutK, OutV> run_map_only(const MapOnlyConfig<InK, InV, OutK, OutV>& config,
                                   const std::vector<KV<InK, InV>>& input,
                                   const RunOptions& opts = {}) {
  return run_map_only(config, VectorInput<InK, InV>{&input}, opts);
}

/// Executes one MapReduce job over any JobInput view. See file header for
/// the execution model. Throws mrsky::InvalidArgument on bad configuration
/// (including a partition_fn that returns an out-of-range bucket).
template <typename InK, typename InV, typename MidK, typename MidV, typename OutK,
          typename OutV, JobInput Input>
JobResult<OutK, OutV> run_job(const JobConfig<InK, InV, MidK, MidV, OutK, OutV>& config,
                              const Input& input, const RunOptions& opts = {}) {
  MRSKY_REQUIRE(static_cast<bool>(config.map_fn), "job needs a map function");
  MRSKY_REQUIRE(static_cast<bool>(config.reduce_fn), "job needs a reduce function");
  MRSKY_REQUIRE(config.num_map_tasks >= 1, "need at least one map task");
  MRSKY_REQUIRE(config.num_reduce_tasks >= 1, "need at least one reduce task");

  const std::size_t num_maps = config.num_map_tasks;
  const std::size_t num_reduces = config.num_reduce_tasks;

  JobResult<OutK, OutV> result;
  result.metrics.job_name = config.name;
  result.metrics.map_tasks.resize(num_maps);
  result.metrics.reduce_tasks.resize(num_reduces);

  common::ScopedSpan job_span(opts.trace, config.name, "job");
  job_span.arg("map_tasks", num_maps);
  job_span.arg("reduce_tasks", num_reduces);

  const auto partition_of = [&](const MidK& key) -> std::size_t {
    if (config.partition_fn) {
      const std::size_t p = config.partition_fn(key, num_reduces);
      // A user-supplied callback is a public-API boundary: validate even in
      // release builds, or the scatter below indexes out of bounds.
      MRSKY_REQUIRE(p < num_reduces, "partition_fn returned out-of-range bucket");
      return p;
    }
    return std::hash<MidK>{}(key) % num_reduces;
  };

  opts.cancel.throw_if_stopped("job start");
  const detail::EnginePool pool(opts);

  // ---- Map phase: map, optional combine, then scatter into per-reduce
  // shards (map-side partitioning). Shuffle metrics are tallied per task and
  // summed in task order below, keeping them independent of scheduling. ----
  const auto offsets = detail::split_offsets(input.size(), num_maps);
  std::vector<std::vector<std::vector<KV<MidK, MidV>>>> shards(num_maps);
  std::vector<std::uint64_t> task_shuffle_records(num_maps, 0);
  std::vector<std::uint64_t> task_shuffle_bytes(num_maps, 0);
  std::vector<std::atomic<std::uint64_t>> routed(num_reduces);

  detail::for_each_task(num_maps, pool.get(), [&](std::size_t t) {
    common::ScopedSpan task_span(opts.trace, "map", "task");
    task_span.arg("job", config.name);
    task_span.arg("task", t);
    common::Timer timer;
    TaskContext ctx;
    Emitter<MidK, MidV> emitter;
    // A failing attempt dies before combine/scatter, so discarding the
    // emitter (reset) is exactly the partial-output discard: nothing of a
    // lost attempt ever reaches the shards.
    auto outcome = detail::run_task_attempts(
        opts, config.name, /*phase=*/0, t, offsets[t + 1] - offsets[t], ctx,
        [&emitter] { emitter = Emitter<MidK, MidV>{}; },
        [&](std::size_t i, TaskContext& attempt_ctx, bool /*may_fail*/) -> std::uint64_t {
          const std::size_t r = offsets[t] + i;
          config.map_fn(input.key(r), input.value(r), emitter, attempt_ctx);
          return 1;
        });
    auto emitted = emitter.take();
    // Routing is counted on the map output itself, before a combiner
    // rewrites it; without one, the scattered shards are that count.
    std::vector<std::uint64_t> combined_routed;
    if (config.combine_fn) {
      combined_routed.assign(num_reduces, 0);
      for (const auto& record : emitted) combined_routed[partition_of(record.key)] += 1;
      common::ScopedSpan combine_span(opts.trace, "combine", "task");
      combine_span.arg("task", t);
      combine_span.arg("records_in", emitted.size());
      Emitter<MidK, MidV> combined;
      detail::group_by_key(emitted, [&](const MidK& key, std::vector<MidV>& values) {
        config.combine_fn(key, values, combined, ctx);
      });
      emitted = combined.take();
      combine_span.arg("records_out", emitted.size());
    }
    auto& m = result.metrics.map_tasks[t];
    m.records_in = offsets[t + 1] - offsets[t];
    m.records_out = emitted.size();
    auto& task_shards = shards[t];
    task_shards.resize(num_reduces);
    for (auto& record : emitted) {
      task_shuffle_records[t] += 1;
      task_shuffle_bytes[t] +=
          sizeof(MidK) +
          (config.value_bytes_fn ? config.value_bytes_fn(record.value) : sizeof(MidV));
      task_shards[partition_of(record.key)].push_back(std::move(record));
    }
    for (std::size_t b = 0; b < num_reduces; ++b) {
      const std::uint64_t count = config.combine_fn ? combined_routed[b] : task_shards[b].size();
      if (count > 0) routed[b].fetch_add(count, std::memory_order_relaxed);
    }
    detail::finish_task(m, ctx, std::move(outcome), timer.elapsed_ns(), task_span);
  });
  for (std::size_t t = 0; t < num_maps; ++t) {
    result.metrics.shuffle_records += task_shuffle_records[t];
    result.metrics.shuffle_bytes += task_shuffle_bytes[t];
  }
  result.metrics.routed_records.reserve(num_reduces);
  for (const auto& count : routed) result.metrics.routed_records.push_back(count.load());

  // ---- Shuffle: build each reduce bucket by concatenating the map tasks'
  // shards in map-task order — the exact sequence a sequential scatter
  // produces, so grouping and output stay identical across modes. ----
  common::Timer shuffle_timer;
  std::vector<std::vector<KV<MidK, MidV>>> buckets(num_reduces);
  {
    common::ScopedSpan shuffle_span(opts.trace, "shuffle", "shuffle");
    shuffle_span.arg("job", config.name);
    shuffle_span.arg("records", result.metrics.shuffle_records);
    shuffle_span.arg("bytes", result.metrics.shuffle_bytes);
    detail::for_each_task(num_reduces, pool.get(), [&](std::size_t b) {
      opts.cancel.throw_if_stopped("shuffle bucket");
      common::ScopedSpan bucket_span(opts.trace, "shuffle-bucket", "shuffle");
      std::size_t total = 0;
      for (std::size_t t = 0; t < num_maps; ++t) total += shards[t][b].size();
      auto& bucket = buckets[b];
      bucket.reserve(total);
      for (std::size_t t = 0; t < num_maps; ++t) {
        auto& shard = shards[t][b];
        bucket.insert(bucket.end(), std::make_move_iterator(shard.begin()),
                      std::make_move_iterator(shard.end()));
        shard.clear();
      }
      bucket_span.arg("bucket", b);
      bucket_span.arg("records", total);
    });
  }
  result.metrics.shuffle_ns = shuffle_timer.elapsed_ns();

  // ---- Reduce phase ----
  // The bucket is sorted and its key-group boundaries computed once; the
  // attempt loop then executes whole key groups as its input units, so a
  // mid-task failure re-reduces the bucket from the first group (Hadoop
  // re-fetches the task's map outputs on retry). Grouping is identical to
  // the former sort-and-sweep, so output bytes are unchanged.
  opts.cancel.throw_if_stopped("reduce phase start");
  std::vector<std::vector<KV<OutK, OutV>>> reduce_outputs(num_reduces);
  detail::for_each_task(num_reduces, pool.get(), [&](std::size_t t) {
    common::ScopedSpan task_span(opts.trace, "reduce", "task");
    task_span.arg("job", config.name);
    task_span.arg("task", t);
    common::Timer timer;
    TaskContext ctx;
    Emitter<OutK, OutV> emitter;
    auto& m = result.metrics.reduce_tasks[t];
    m.records_in = buckets[t].size();
    auto& bucket = buckets[t];
    const auto key_less = [](const KV<MidK, MidV>& a, const KV<MidK, MidV>& b) {
      return a.key < b.key;
    };
    // A stable sort of a bucket already in key order (e.g. one holding a
    // single key) is the identity, so skip it.
    if (!std::is_sorted(bucket.begin(), bucket.end(), key_less)) {
      std::stable_sort(bucket.begin(), bucket.end(), key_less);
    }
    std::vector<std::pair<std::size_t, std::size_t>> groups;  // [first, last) runs
    for (std::size_t i = 0; i < bucket.size();) {
      std::size_t j = i + 1;
      while (j < bucket.size() && !(bucket[i].key < bucket[j].key)) ++j;
      groups.emplace_back(i, j);
      i = j;
    }
    auto outcome = detail::run_task_attempts(
        opts, config.name, /*phase=*/1, t, groups.size(), ctx,
        [&emitter] { emitter = Emitter<OutK, OutV>{}; },
        [&](std::size_t g, TaskContext& attempt_ctx, bool may_fail) -> std::uint64_t {
          const auto [first, last] = groups[g];
          std::vector<MidV> values;
          values.reserve(last - first);
          for (std::size_t r = first; r < last; ++r) {
            // A discardable attempt must leave the bucket intact for the
            // re-execution; only the guaranteed-surviving attempt may move
            // the values out.
            if (may_fail) {
              values.push_back(bucket[r].value);
            } else {
              values.push_back(std::move(bucket[r].value));
            }
          }
          config.reduce_fn(bucket[first].key, values, emitter, attempt_ctx);
          return last - first;
        });
    reduce_outputs[t] = emitter.take();
    // The bucket is dead once its groups have reduced; reclaim eagerly.
    std::vector<KV<MidK, MidV>>().swap(buckets[t]);
    m.records_out = reduce_outputs[t].size();
    detail::finish_task(m, ctx, std::move(outcome), timer.elapsed_ns(), task_span);
  });

  std::size_t total_out = 0;
  for (const auto& out : reduce_outputs) total_out += out.size();
  result.output.reserve(total_out);
  for (auto& out : reduce_outputs) {
    result.output.insert(result.output.end(), std::make_move_iterator(out.begin()),
                         std::make_move_iterator(out.end()));
  }
  return result;
}

/// Executes one MapReduce job over an in-memory record vector.
template <typename InK, typename InV, typename MidK, typename MidV, typename OutK,
          typename OutV>
JobResult<OutK, OutV> run_job(const JobConfig<InK, InV, MidK, MidV, OutK, OutV>& config,
                              const std::vector<KV<InK, InV>>& input,
                              const RunOptions& opts = {}) {
  return run_job(config, VectorInput<InK, InV>{&input}, opts);
}

}  // namespace mrsky::mr
