// The row job the engine tests run: seven map tasks over 301 input rows, five
// reduce tasks, and a reduce that returns its bucket unchanged — so a run's
// output is exactly what crossed the shuffle — plus what such a run must
// produce, and the settings a property must hold under.
#pragma once

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "src/mapreduce/row_job.hpp"

namespace mrsky::test {

inline constexpr std::size_t kDim = 2;
inline constexpr std::size_t kRows = 301;
inline constexpr std::size_t kKeys = 5;

/// Input row r as the row (r, -r) with id 7r + 1.
inline std::vector<double> row_of(std::size_t r) {
  return {static_cast<double>(r), -static_cast<double>(r)};
}
inline data::PointId id_of(std::size_t r) { return static_cast<data::PointId>(7 * r + 1); }

/// Keys row r goes to, in emission order: r mod 5, and for even rows also
/// 3r mod 5 (twice to the same key when r is a multiple of 5).
inline std::vector<std::size_t> keys_of(std::size_t r) {
  std::vector<std::size_t> keys{r % kKeys};
  if (r % 2 == 0) keys.push_back((3 * r) % kKeys);
  return keys;
}

/// Seven map tasks over kRows rows; a reduce returns its bucket unchanged.
inline mr::RowJobConfig echo_job() {
  mr::RowJobConfig job;
  job.name = "echo";
  job.num_map_tasks = 7;
  job.num_reduce_tasks = kKeys;
  job.dim = kDim;
  job.map_fn = [](std::size_t r, mr::RowEmitter& out, mr::TaskContext& ctx) {
    ctx.charge_work(1);
    for (const std::size_t key : keys_of(r)) out.emit(key, row_of(r), id_of(r));
  };
  job.reduce_fn = [](std::size_t, const data::PointSet& rows, mr::TaskContext& ctx) {
    ctx.charge_work(rows.size());
    return rows;
  };
  return job;
}

/// What reduce task k must see: the rows of [0, rows) emitted to k, in input
/// order, leaving out the rows `dropped` names.
inline std::vector<data::PointSet> expected_buckets(
    std::size_t rows = kRows, const std::function<bool(std::size_t)>& dropped = {}) {
  std::vector<data::PointSet> buckets(kKeys, data::PointSet(kDim));
  for (std::size_t r = 0; r < rows; ++r) {
    if (dropped && dropped(r)) continue;
    for (const std::size_t key : keys_of(r)) buckets[key].push_back(row_of(r), id_of(r));
  }
  return buckets;
}

/// A fresh, empty spill directory private to one test process.
inline std::filesystem::path spill_dir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / (name + "-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// Every metric but the measured walls and the spilled bytes, down to each
/// failure event's phase, task, attempt, records processed and cause.
inline void expect_same_metrics(const mr::JobMetrics& a, const mr::JobMetrics& b) {
  const auto same_tasks = [](const std::vector<mr::TaskMetrics>& x,
                             const std::vector<mr::TaskMetrics>& y) {
    ASSERT_EQ(x.size(), y.size());
    for (std::size_t t = 0; t < x.size(); ++t) {
      EXPECT_EQ(x[t].records_in, y[t].records_in) << "task " << t;
      EXPECT_EQ(x[t].records_out, y[t].records_out) << "task " << t;
      EXPECT_EQ(x[t].work_units, y[t].work_units) << "task " << t;
      EXPECT_EQ(x[t].attempts, y[t].attempts) << "task " << t;
      EXPECT_EQ(x[t].records_skipped, y[t].records_skipped) << "task " << t;
      EXPECT_EQ(x[t].wasted_records, y[t].wasted_records) << "task " << t;
      EXPECT_EQ(x[t].counters, y[t].counters) << "task " << t;
      ASSERT_EQ(x[t].failure_events.size(), y[t].failure_events.size()) << "task " << t;
      for (std::size_t i = 0; i < x[t].failure_events.size(); ++i) {
        const mr::TaskFailureEvent& e = x[t].failure_events[i];
        const mr::TaskFailureEvent& f = y[t].failure_events[i];
        EXPECT_EQ(e.phase, f.phase) << "task " << t << " event " << i;
        EXPECT_EQ(e.task, f.task) << "task " << t << " event " << i;
        EXPECT_EQ(e.attempt, f.attempt) << "task " << t << " event " << i;
        EXPECT_EQ(e.records_processed, f.records_processed) << "task " << t << " event " << i;
        EXPECT_EQ(e.injected, f.injected) << "task " << t << " event " << i;
        EXPECT_EQ(e.bad_record, f.bad_record) << "task " << t << " event " << i;
      }
    }
  };
  same_tasks(a.map_tasks, b.map_tasks);
  same_tasks(a.reduce_tasks, b.reduce_tasks);
  EXPECT_EQ(a.shuffle_records, b.shuffle_records);
  EXPECT_EQ(a.shuffle_bytes, b.shuffle_bytes);
  EXPECT_EQ(a.routed_records, b.routed_records);
}

/// Runs `check(opts)` with `base` under kSequential and kThreads (3
/// workers), each with the shuffle in memory and with every map task
/// spilling (a 1-byte budget) into a fresh directory, which the job must
/// leave empty.
template <typename Check>
void for_each_setting(const mr::RunOptions& base, const Check& check) {
  for (const mr::ExecutionMode mode : {mr::ExecutionMode::kSequential, mr::ExecutionMode::kThreads}) {
    for (const std::uint64_t budget : {std::uint64_t{0}, std::uint64_t{1}}) {
      SCOPED_TRACE(std::string(mode == mr::ExecutionMode::kThreads ? "threads" : "sequential") +
                   ", spill budget " + std::to_string(budget));
      const std::filesystem::path dir = spill_dir("row-job-setting");
      mr::RunOptions opts = base;
      opts.mode = mode;
      opts.num_threads = 3;
      opts.shuffle_spill_bytes = budget;
      opts.spill_dir = dir.string();
      check(opts);
      EXPECT_TRUE(std::filesystem::is_empty(dir)) << "spill files outlived the job";
      std::filesystem::remove_all(dir);
    }
  }
}

}  // namespace mrsky::test
