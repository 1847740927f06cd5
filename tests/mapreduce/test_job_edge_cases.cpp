// Engine edge cases beyond the word-count happy path.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/mapreduce/job.hpp"

namespace mrsky::mr {
namespace {

using IntJob = JobConfig<int, int, int, int, int, int>;

IntJob identity_job() {
  IntJob config;
  config.name = "identity";
  config.num_map_tasks = 4;
  config.num_reduce_tasks = 3;
  config.map_fn = [](const int& k, const int& v, Emitter<int, int>& out, TaskContext&) {
    out.emit(k, v);
  };
  config.reduce_fn = [](const int& key, std::vector<int>& values, Emitter<int, int>& out,
                        TaskContext&) {
    for (int v : values) out.emit(key, v);
  };
  return config;
}

TEST(JobEdgeCases, MapperEmittingNothingIsFine) {
  auto config = identity_job();
  config.map_fn = [](const int&, const int&, Emitter<int, int>&, TaskContext&) {};
  std::vector<KV<int, int>> input = {{1, 1}, {2, 2}};
  const auto result = run_job(config, input);
  EXPECT_TRUE(result.output.empty());
  EXPECT_EQ(result.metrics.shuffle_records, 0u);
  EXPECT_EQ(result.metrics.map_total().records_in, 2u);
}

TEST(JobEdgeCases, ReducerEmittingNothingIsFine) {
  auto config = identity_job();
  config.reduce_fn = [](const int&, std::vector<int>&, Emitter<int, int>&, TaskContext&) {};
  std::vector<KV<int, int>> input = {{1, 1}, {2, 2}};
  const auto result = run_job(config, input);
  EXPECT_TRUE(result.output.empty());
  EXPECT_EQ(result.metrics.reduce_total().records_in, 2u);
}

TEST(JobEdgeCases, MapperFanOut) {
  // One input record explodes into many intermediate records.
  auto config = identity_job();
  config.map_fn = [](const int& k, const int&, Emitter<int, int>& out, TaskContext&) {
    for (int i = 0; i < 50; ++i) out.emit((k * 50 + i) % 7, i);
  };
  std::vector<KV<int, int>> input = {{0, 0}, {1, 0}};
  const auto result = run_job(config, input);
  EXPECT_EQ(result.metrics.map_total().records_out, 100u);
  EXPECT_EQ(result.metrics.shuffle_records, 100u);
  EXPECT_EQ(result.output.size(), 100u);
}

TEST(JobEdgeCases, SingleMapSingleReduce) {
  auto config = identity_job();
  config.num_map_tasks = 1;
  config.num_reduce_tasks = 1;
  std::vector<KV<int, int>> input;
  for (int i = 0; i < 25; ++i) input.push_back({i, i});
  const auto result = run_job(config, input);
  EXPECT_EQ(result.output.size(), 25u);
  EXPECT_EQ(result.metrics.map_tasks.size(), 1u);
  EXPECT_EQ(result.metrics.reduce_tasks.size(), 1u);
}

TEST(JobEdgeCases, CombinerSeesOnlyItsOwnMapOutput) {
  // Each map task's combiner groups only that task's records: with one key
  // per input record and 4 map tasks over 8 records, each combiner call
  // receives at most the records of one split.
  auto config = identity_job();
  std::vector<std::size_t> combine_group_sizes;
  config.map_fn = [](const int&, const int& v, Emitter<int, int>& out, TaskContext&) {
    out.emit(0, v);  // single key
  };
  config.combine_fn = [&combine_group_sizes](const int& key, std::vector<int>& values,
                                             Emitter<int, int>& out, TaskContext&) {
    combine_group_sizes.push_back(values.size());
    for (int v : values) out.emit(key, v);
  };
  std::vector<KV<int, int>> input;
  for (int i = 0; i < 8; ++i) input.push_back({i, i});
  (void)run_job(config, input);
  ASSERT_EQ(combine_group_sizes.size(), 4u);  // one group per map task
  for (std::size_t s : combine_group_sizes) EXPECT_EQ(s, 2u);
}

TEST(JobEdgeCases, NegativeAndDuplicateKeysGroupCorrectly) {
  auto config = identity_job();
  config.num_reduce_tasks = 2;
  config.partition_fn = [](const int& key, std::size_t buckets) {
    return static_cast<std::size_t>(std::abs(key)) % buckets;
  };
  std::vector<KV<int, int>> input = {{-3, 1}, {-3, 2}, {5, 3}, {-3, 4}, {5, 5}};
  config.map_fn = [](const int& k, const int& v, Emitter<int, int>& out, TaskContext&) {
    out.emit(k, v);
  };
  int group_count = 0;
  config.reduce_fn = [&group_count](const int& key, std::vector<int>& values,
                                    Emitter<int, int>& out, TaskContext&) {
    ++group_count;
    out.emit(key, static_cast<int>(values.size()));
  };
  const auto result = run_job(config, input);
  EXPECT_EQ(group_count, 2);
  for (const auto& kv : result.output) {
    if (kv.key == -3) {
      EXPECT_EQ(kv.value, 3);
    }
    if (kv.key == 5) {
      EXPECT_EQ(kv.value, 2);
    }
  }
}

TEST(JobEdgeCases, StringKeysSortLexicographically) {
  JobConfig<int, std::string, std::string, int, std::string, int> config;
  config.name = "lex";
  config.num_map_tasks = 1;
  config.num_reduce_tasks = 1;
  config.map_fn = [](const int&, const std::string& s, Emitter<std::string, int>& out,
                     TaskContext&) { out.emit(s, 1); };
  std::vector<std::string> seen;
  config.reduce_fn = [&seen](const std::string& key, std::vector<int>&,
                             Emitter<std::string, int>& out, TaskContext&) {
    seen.push_back(key);
    out.emit(key, 1);
  };
  std::vector<KV<int, std::string>> input = {{0, "pear"}, {1, "apple"}, {2, "mango"}};
  (void)run_job(config, input);
  EXPECT_EQ(seen, (std::vector<std::string>{"apple", "mango", "pear"}));
}

TEST(JobEdgeCases, OutOfRangePartitionFnThrows) {
  // A user-supplied partitioner is a public-API boundary: an out-of-range
  // bucket must throw (in release builds too), never index out of bounds.
  auto config = identity_job();
  config.partition_fn = [](const int& key, std::size_t buckets) -> std::size_t {
    return key == 7 ? buckets : static_cast<std::size_t>(key) % buckets;
  };
  std::vector<KV<int, int>> input;
  for (int i = 0; i < 12; ++i) input.push_back({i, i});
  EXPECT_THROW(run_job(config, input), mrsky::InvalidArgument);

  RunOptions threaded;
  threaded.mode = ExecutionMode::kThreads;
  threaded.num_threads = 4;
  EXPECT_THROW(run_job(config, input, threaded), mrsky::InvalidArgument);
}

TEST(JobEdgeCases, WayOutOfRangePartitionFnThrows) {
  auto config = identity_job();
  config.partition_fn = [](const int&, std::size_t) -> std::size_t { return 1u << 20; };
  std::vector<KV<int, int>> input = {{1, 1}};
  EXPECT_THROW(run_job(config, input), mrsky::InvalidArgument);
}

TEST(JobEdgeCases, MoveOnlyFriendlyValuesViaVectors) {
  // Values carrying heap payloads survive the shuffle intact.
  JobConfig<int, std::vector<int>, int, std::vector<int>, int, std::size_t> config;
  config.name = "payload";
  config.num_map_tasks = 2;
  config.num_reduce_tasks = 2;
  config.map_fn = [](const int& k, const std::vector<int>& v,
                     Emitter<int, std::vector<int>>& out, TaskContext&) { out.emit(k % 2, v); };
  config.reduce_fn = [](const int& key, std::vector<std::vector<int>>& values,
                        Emitter<int, std::size_t>& out, TaskContext&) {
    std::size_t total = 0;
    for (const auto& v : values) total += v.size();
    out.emit(key, total);
  };
  std::vector<KV<int, std::vector<int>>> input;
  for (int i = 0; i < 6; ++i) input.push_back({i, std::vector<int>(static_cast<std::size_t>(i))});
  const auto result = run_job(config, input);
  std::size_t grand_total = 0;
  for (const auto& kv : result.output) grand_total += kv.value;
  EXPECT_EQ(grand_total, 0u + 1 + 2 + 3 + 4 + 5);
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

}  // namespace
}  // namespace mrsky::mr
