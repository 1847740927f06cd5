// Shuffle spill and map-side routing counts in the generic engine.
//
// A spilling map task writes each reduce bucket with one buffered write; a
// reduce task reads each (map task, bucket) span back with one read and
// decodes it from memory. The output must equal the in-memory shuffle's, and
// a damaged spill file must fail the job with a typed error, never a read
// past the span. JobMetrics::routed_records counts what the map functions
// routed to each bucket, before any combine and for committed attempts only.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/mapreduce/job.hpp"

namespace mrsky::mr {
namespace {

namespace fs = std::filesystem;

using Values = std::vector<std::int32_t>;
using SpillJob = JobConfig<int, int, int, Values, int, std::int64_t>;

constexpr std::size_t kValuesPerRecord = 3;
/// Record layout: i32 key, u32 value count, the values.
constexpr std::size_t kRecordBytes = 8 + 4 * kValuesPerRecord;

void append(std::vector<char>& out, const void* bytes, std::size_t n) {
  const auto* p = static_cast<const char*>(bytes);
  out.insert(out.end(), p, p + n);
}

void encode(std::vector<char>& out, const KV<int, Values>& kv) {
  const auto count = static_cast<std::uint32_t>(kv.value.size());
  append(out, &kv.key, sizeof(kv.key));
  append(out, &count, sizeof(count));
  append(out, kv.value.data(), kv.value.size() * sizeof(std::int32_t));
}

KV<int, Values> decode(std::span<const char>& in) {
  if (in.size() < 8) throw RuntimeError("short spill record header");
  KV<int, Values> kv;
  std::uint32_t count = 0;
  std::memcpy(&kv.key, in.data(), sizeof(kv.key));
  std::memcpy(&count, in.data() + 4, sizeof(count));
  if (count > (in.size() - 8) / sizeof(std::int32_t)) {
    throw RuntimeError("short spill record payload");
  }
  kv.value.resize(count);
  std::memcpy(kv.value.data(), in.data() + 8, count * sizeof(std::int32_t));
  in = in.subspan(8 + count * sizeof(std::int32_t));
  return kv;
}

/// Five map tasks fanning every input out to 23 keys over four buckets,
/// with fixed-size values so a test can find each record in a spill file.
/// `on_reduce` runs at the start of every reduce call.
SpillJob spill_job(std::function<void()> on_reduce = {}) {
  SpillJob job;
  job.name = "spill";
  job.num_map_tasks = 5;
  job.num_reduce_tasks = 4;
  job.map_fn = [](const int& k, const int& v, Emitter<int, Values>& out, TaskContext&) {
    for (int i = 0; i < 4; ++i) out.emit((k * 7 + i) % 23, Values{v, i, k});
  };
  job.reduce_fn = [on_reduce](const int& key, std::vector<Values>& values,
                              Emitter<int, std::int64_t>& out, TaskContext&) {
    if (on_reduce) on_reduce();
    std::int64_t total = 0;
    for (const Values& v : values) total += v[0] * 3 + v[1] - v[2];
    out.emit(key, total);
  };
  job.partition_fn = [](const int& key, std::size_t buckets) {
    return static_cast<std::size_t>(key) % buckets;
  };
  job.spill_codec.write = encode;
  job.spill_codec.read = decode;
  return job;
}

std::vector<KV<int, int>> numbers(int n) {
  std::vector<KV<int, int>> input;
  for (int i = 0; i < n; ++i) input.push_back({i, 5 * i + 2});
  return input;
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

/// Applies `damage` to every spill file once, from the first reduce call:
/// the map stage has written every file and the first bucket has been read.
std::function<void()> damage_once(const fs::path& dir, std::function<void(const fs::path&)> damage,
                                  bool& done) {
  return [dir, damage = std::move(damage), &done] {
    if (done) return;
    done = true;
    for (const auto& entry : fs::directory_iterator(dir)) damage(entry.path());
  };
}

/// Overwrites the value count of a spill file's last record, which ends the
/// span of the file's last non-empty bucket.
void set_last_count(const fs::path& file, std::uint32_t count) {
  const auto size = fs::file_size(file);
  ASSERT_EQ(size % kRecordBytes, 0u);
  ASSERT_GT(size, 0u);
  std::fstream io(file, std::ios::binary | std::ios::in | std::ios::out);
  io.seekp(static_cast<std::streamoff>(size - kRecordBytes + 4));
  io.write(reinterpret_cast<const char*>(&count), sizeof(count));
  ASSERT_TRUE(io.good());
}

std::vector<std::pair<int, std::int64_t>> flat(const std::vector<KV<int, std::int64_t>>& out) {
  std::vector<std::pair<int, std::int64_t>> pairs;
  for (const auto& kv : out) pairs.emplace_back(kv.key, kv.value);
  return pairs;
}

/// Runs `job` sequentially and returns the message of the RuntimeError it
/// must fail with.
std::string failure_of(const SpillJob& job, const RunOptions& opts) {
  try {
    (void)run_job(job, numbers(200), opts);
  } catch (const RuntimeError& e) {
    return e.what();
  }
  ADD_FAILURE() << "the job succeeded on a damaged spill file";
  return {};
}

TEST(ShuffleSpill, SpilledJobMatchesInMemoryJob) {
  const auto input = numbers(200);
  const auto reference = run_job(spill_job(), input);
  for (const ExecutionMode mode : {ExecutionMode::kSequential, ExecutionMode::kThreads}) {
    const fs::path dir = spill_dir("spill-identity");
    RunOptions opts = spilling(dir);
    opts.mode = mode;
    opts.num_threads = 3;
    const auto spilled = run_job(spill_job(), input, opts);
    EXPECT_EQ(flat(spilled.output), flat(reference.output));
    EXPECT_EQ(spilled.metrics.shuffle_records, reference.metrics.shuffle_records);
    EXPECT_EQ(spilled.metrics.shuffle_bytes, reference.metrics.shuffle_bytes);
    EXPECT_EQ(spilled.metrics.routed_records, reference.metrics.routed_records);
    EXPECT_EQ(spilled.metrics.shuffle_spill_files, 5u);
    // The files hold exactly the encoded records: nothing more, nothing less.
    EXPECT_EQ(spilled.metrics.shuffle_spilled_bytes, 800u * kRecordBytes);
    EXPECT_TRUE(fs::is_empty(dir)) << "spill files outlived the job";
    fs::remove_all(dir);
  }
}

TEST(ShuffleSpill, TruncatedSpillFileFailsTyped) {
  const fs::path dir = spill_dir("spill-truncated");
  bool done = false;
  const SpillJob job = spill_job(damage_once(
      dir, [](const fs::path& file) { fs::resize_file(file, fs::file_size(file) / 2); }, done));
  EXPECT_NE(failure_of(job, spilling(dir)).find("truncated shuffle spill file"),
            std::string::npos);
  EXPECT_TRUE(done);
  EXPECT_TRUE(fs::is_empty(dir)) << "a failed job must still remove its spill files";
  fs::remove_all(dir);
}

TEST(ShuffleSpill, SpanDecodingShortOfItsEndFailsTyped) {
  // A span's last record now claims one value fewer than it holds: the span
  // decodes its record count and stops before its end.
  const fs::path dir = spill_dir("spill-short");
  bool done = false;
  const SpillJob job = spill_job(damage_once(
      dir, [](const fs::path& file) { set_last_count(file, kValuesPerRecord - 1); }, done));
  EXPECT_NE(failure_of(job, spilling(dir)).find("left over"), std::string::npos);
  EXPECT_TRUE(fs::is_empty(dir));
  fs::remove_all(dir);
}

TEST(ShuffleSpill, SpanDecodingPastItsEndFailsTyped) {
  // A span's last record now claims more values than the span holds: the
  // codec must stop at the span's end rather than read past the buffer.
  for (const std::uint32_t count : {std::uint32_t{kValuesPerRecord + 1}, std::uint32_t{1u << 30}}) {
    const fs::path dir = spill_dir("spill-long");
    bool done = false;
    const SpillJob job = spill_job(
        damage_once(dir, [count](const fs::path& file) { set_last_count(file, count); }, done));
    EXPECT_NE(failure_of(job, spilling(dir)).find("short spill record"), std::string::npos)
        << "count " << count;
    EXPECT_TRUE(fs::is_empty(dir));
    fs::remove_all(dir);
  }
}

TEST(RoutedRecords, CountMapOutputPerBucketBeforeCombine) {
  SpillJob job = spill_job();
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
