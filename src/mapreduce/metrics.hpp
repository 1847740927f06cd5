// Execution metrics recorded by the engine.
//
// Every map and reduce task reports what it consumed, produced, charged as
// abstract work, and how long it really took. JobMetrics is the plain-data
// interface between the engine and the cluster simulator; nothing in here
// depends on record types.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mrsky::mr {

/// One failed task attempt — the record the engine keeps when an attempt dies
/// mid-task (injected crash) or hits a record its user function throws on.
/// Events are recorded in task order, so they are identical under
/// kSequential and kThreads.
struct TaskFailureEvent {
  std::uint32_t phase = 0;              ///< 0 = map, 1 = reduce
  std::uint64_t task = 0;               ///< task index within its phase
  std::uint64_t attempt = 0;            ///< 0-based attempt that failed
  std::uint64_t records_processed = 0;  ///< input records consumed before dying
  std::uint64_t work_units_wasted = 0;  ///< work charged by the lost attempt
  bool injected = false;                ///< true = injected crash, false = bad record
  std::uint64_t bad_record = 0;         ///< split-local index (bad-record events only)
};

/// Job-level fault-tolerance ledger: what failure handling cost and what it
/// isolated. Derived from per-task metrics by JobMetrics::failure_report().
struct FailureReport {
  std::uint64_t tasks_retried = 0;      ///< tasks that needed more than one attempt
  std::uint64_t wasted_records = 0;     ///< records executed by discarded attempts
  std::uint64_t wasted_work_units = 0;  ///< work charged by discarded attempts
  std::uint64_t records_skipped = 0;    ///< bad records isolated by skip mode
  std::vector<TaskFailureEvent> events; ///< per-attempt detail, task order

  [[nodiscard]] bool empty() const noexcept {
    return tasks_retried == 0 && records_skipped == 0 && events.empty();
  }

  /// Pipeline aggregation (e.g. job 1 + every merge round).
  FailureReport& operator+=(const FailureReport& other) {
    tasks_retried += other.tasks_retried;
    wasted_records += other.wasted_records;
    wasted_work_units += other.wasted_work_units;
    records_skipped += other.records_skipped;
    events.insert(events.end(), other.events.begin(), other.events.end());
    return *this;
  }
};

struct TaskMetrics {
  std::uint64_t records_in = 0;
  std::uint64_t records_out = 0;
  std::uint64_t work_units = 0;  ///< user-charged abstract work (see TaskContext)
  std::int64_t wall_ns = 0;      ///< measured wall time of the task body
  std::uint64_t attempts = 1;    ///< executions incl. injected-failure retries
  std::map<std::string, std::uint64_t> counters;  ///< named counters
  std::uint64_t records_skipped = 0;    ///< bad records isolated (skip mode)
  std::uint64_t wasted_records = 0;     ///< records consumed by failed attempts
  std::uint64_t wasted_work_units = 0;  ///< work charged by failed attempts
  std::vector<TaskFailureEvent> failure_events;  ///< one per failed attempt

  TaskMetrics& operator+=(const TaskMetrics& other);
};

struct JobMetrics {
  std::string job_name;
  std::vector<TaskMetrics> map_tasks;     ///< combine work is charged to its map task
  std::vector<TaskMetrics> reduce_tasks;
  std::uint64_t shuffle_records = 0;      ///< records crossing the shuffle
  std::uint64_t shuffle_bytes = 0;        ///< approximate payload volume
  std::int64_t shuffle_ns = 0;            ///< wall time of the bucket-build stage
  std::uint64_t shuffle_spilled_bytes = 0;  ///< bytes written to spill files
  std::uint64_t shuffle_spill_files = 0;    ///< map tasks that spilled
  /// Records the map functions routed to each reduce bucket (one entry per
  /// reduce task), counted before any combine and for committed attempts
  /// only.
  std::vector<std::uint64_t> routed_records;

  // Block-input accounting, set by pipelines that stream a DatasetSource
  // (zero for in-memory runs): payload volume actually read vs. skipped
  // whole because the block's min corner was dominated.
  std::uint64_t blocks_pruned = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_pruned = 0;

  [[nodiscard]] TaskMetrics map_total() const;
  [[nodiscard]] TaskMetrics reduce_total() const;
  [[nodiscard]] std::uint64_t total_work_units() const;
  [[nodiscard]] double total_wall_seconds() const;
  /// All named counters across map and reduce tasks, summed by name.
  [[nodiscard]] std::map<std::string, std::uint64_t> counter_totals() const;
  /// Aggregated fault-tolerance ledger across both phases (events in task
  /// order: all map tasks, then all reduce tasks).
  [[nodiscard]] FailureReport failure_report() const;
};

}  // namespace mrsky::mr
