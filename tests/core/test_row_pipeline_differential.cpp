// Differential sweep of the row-job pipeline against the record pipeline it
// replaced. run_mr_skyline moves each point through job 1 and the merge
// rounds as a flat row (src/mapreduce/row_job.hpp); before, each point was a
// PointRec — an id plus its own heap vector — carried by the generic
// mr::run_job. That record pipeline is kept here as the reference, with its
// resident and streamed front halves (fit, filter, block pruning). Over
// seeded cases — resident and `.mrb` inputs, MR-Angle/Grid/Dim, fan-in 0 and
// ≥ 2, combiner, salting, representative filter, injected faults with and
// without skip-bad-records (a partitioner and a kernel that throw on some
// inputs), spill budgets from 1 byte to none, kSequential and kThreads —
// both must give the same skyline bits and order, local skylines, partition
// report, and every JobMetrics field but the walls (wall_ns, shuffle_ns) and
// shuffle_spilled_bytes; or fail with the same error.
//
// The reference does not spill: its spill codec never changed a record, so
// its shuffle_spill_files is the count of map tasks whose shuffle bytes ×
// map tasks exceed the budget — the decision run_job made.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/trace.hpp"
#include "src/core/mr_skyline.hpp"
#include "src/dataset/block_store.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/source.hpp"
#include "src/partition/stats.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/dominance_block.hpp"

namespace mrsky {
namespace {

namespace fs = std::filesystem;

// ---- The record pipeline, as it ran before the row job ---------------------

struct PointRec {
  data::PointId id = 0;
  std::vector<double> coords;
};

data::PointSet to_point_set(std::size_t dim, const std::vector<PointRec>& recs) {
  data::PointSet ps(dim);
  ps.reserve(recs.size());
  for (const auto& r : recs) ps.push_back(r.coords, r.id);
  return ps;
}

struct RowsInput {
  const data::PointSet* ps;
  [[nodiscard]] std::size_t size() const noexcept { return ps->size(); }
  [[nodiscard]] data::PointId key(std::size_t i) const noexcept { return ps->id(i); }
  [[nodiscard]] std::span<const double> value(std::size_t i) const noexcept {
    return ps->point(i);
  }
};

bool dominated_by_representatives(const skyline::TiledWindow& reps, const double* row,
                                  std::uint64_t& tests) {
  for (std::size_t t = 0; t < reps.tiles(); ++t) {
    const std::uint32_t hit =
        skyline::dominators_in_block(row, reps.tile_data(t), reps.dim()) & reps.valid_mask(t);
    if (hit != 0) {
      tests = t * skyline::kTileWidth + static_cast<std::uint64_t>(std::countr_zero(hit)) + 1;
      return true;
    }
  }
  tests = reps.size();
  return false;
}

skyline::TiledWindow representative_tiles(const data::PointSet& sample,
                                          const data::PointSet& sample_skyline) {
  const data::PointSet reps = core::pick_representatives(sample, sample_skyline);
  skyline::TiledWindow tiles(sample.dim());
  for (std::size_t i = 0; i < reps.size(); ++i) tiles.push_back(reps.point(i), reps.id(i));
  return tiles;
}

/// The record pipeline's job 1 and merge cascade over job-1 input `rows`.
void reference_pipeline(const data::PointSet& rows, const part::Partitioner& part_ref,
                        const std::unordered_set<std::size_t>& pruned,
                        const skyline::TiledWindow* representatives,
                        const core::MRSkylineConfig& config, core::MRSkylineResult& result) {
  const std::size_t dim = rows.dim();
  const std::size_t partitions = part_ref.num_partitions();
  const RowsInput input_view{&rows};
  mr::RunOptions run_opts = config.run_options;
  run_opts.shuffle_spill_bytes = 0;
  std::unique_ptr<common::ThreadPool> pipeline_pool;
  if (run_opts.mode == mr::ExecutionMode::kThreads && run_opts.pool == nullptr) {
    pipeline_pool = std::make_unique<common::ThreadPool>(run_opts.num_threads);
    run_opts.pool = pipeline_pool.get();
  }

  std::vector<std::size_t> salt(partitions, 1);
  if (config.salt_oversized_partitions) {
    std::vector<std::size_t> sizes(partitions, 0);
    std::size_t count = 0;
    for (std::size_t i = 0; i < input_view.size(); ++i) {
      const std::span<const double> row = input_view.value(i);
      std::uint64_t tests = 0;
      if (representatives != nullptr &&
          dominated_by_representatives(*representatives, row.data(), tests)) {
        continue;
      }
      sizes[part_ref.assign(row)] += 1;
      ++count;
    }
    const double target = config.salt_target_factor * static_cast<double>(count) /
                          static_cast<double>(partitions);
    for (std::size_t p = 0; p < partitions; ++p) {
      const auto needed = static_cast<std::size_t>(
          std::ceil(static_cast<double>(sizes[p]) / std::max(target, 1.0)));
      salt[p] = std::clamp<std::size_t>(needed, 1, 64);
    }
  }
  std::vector<std::size_t> key_base(partitions + 1, 0);
  for (std::size_t p = 0; p < partitions; ++p) key_base[p + 1] = key_base[p] + salt[p];
  const std::size_t total_keys = key_base.back();
  std::vector<std::size_t> key_to_partition(total_keys);
  for (std::size_t p = 0; p < partitions; ++p) {
    for (std::size_t s = 0; s < salt[p]; ++s) key_to_partition[key_base[p] + s] = p;
  }

  auto kernel = [&config](const data::PointSet& points,
                          skyline::SkylineStats* stats) -> data::PointSet {
    if (config.local_skyline_override) return config.local_skyline_override(points, stats);
    return skyline::compute_skyline(points, config.local_algorithm, stats);
  };

  using Job1 = mr::JobConfig<data::PointId, std::span<const double>, std::size_t, PointRec,
                             std::size_t, PointRec>;
  Job1 job1;
  job1.name = "partition-local-skyline";
  job1.num_map_tasks = config.effective_map_tasks();
  job1.num_reduce_tasks = total_keys;
  job1.partition_fn = [](const std::size_t& key, std::size_t buckets) { return key % buckets; };
  job1.value_bytes_fn = [](const PointRec& rec) {
    return sizeof(data::PointId) + rec.coords.size() * sizeof(double);
  };
  job1.map_fn = [&part_ref, &salt, &key_base, representatives, dim](
                    const data::PointId& id, const std::span<const double>& coords,
                    mr::Emitter<std::size_t, PointRec>& out, mr::TaskContext& ctx) {
    if (representatives != nullptr) {
      std::uint64_t tests = 0;
      const bool dominated = dominated_by_representatives(*representatives, coords.data(), tests);
      ctx.charge_work(tests);
      if (dominated) return;
    }
    ctx.charge_work(dim);
    const std::size_t p = part_ref.assign(coords);
    std::size_t key = key_base[p];
    if (salt[p] > 1) {
      std::uint64_t h = (static_cast<std::uint64_t>(id) + 1) * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 30;
      h *= 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 27;
      key += static_cast<std::size_t>(h % salt[p]);
    }
    out.emit(key, PointRec{id, {coords.begin(), coords.end()}});
  };
  auto make_local_skyline_fn = [&, dim](const char* emitted_counter) {
    return [&, dim, emitted_counter](const std::size_t& key, std::vector<PointRec>& values,
                                     mr::Emitter<std::size_t, PointRec>& out,
                                     mr::TaskContext& ctx) {
      const std::size_t partition_id = key_to_partition[key];
      if (pruned.contains(partition_id)) {
        ctx.increment("skyline.points_pruned", values.size());
        return;
      }
      skyline::SkylineStats stats;
      const data::PointSet local = kernel(to_point_set(dim, values), &stats);
      ctx.charge_work(stats.dominance_tests);
      ctx.increment(emitted_counter, local.size());
      for (std::size_t i = 0; i < local.size(); ++i) {
        out.emit(key, PointRec{local.id(i), {local.point(i).begin(), local.point(i).end()}});
      }
    };
  };
  if (config.use_combiner) job1.combine_fn = make_local_skyline_fn("skyline.combine_points");
  job1.reduce_fn = make_local_skyline_fn("skyline.local_points");

  auto job1_result = mr::run_job(job1, input_view, run_opts);
  result.partition_job = std::move(job1_result.metrics);

  std::vector<std::size_t> partition_sizes(partitions, 0);
  for (std::size_t k = 0; k < total_keys; ++k) {
    partition_sizes[key_to_partition[k]] += result.partition_job.routed_records[k];
  }
  result.partition_report = part::report_from_sizes(part_ref, std::move(partition_sizes));
  result.local_skylines.assign(partitions, data::PointSet(dim));
  for (const auto& kv : job1_result.output) {
    result.local_skylines[key_to_partition[kv.key]].push_back(kv.value.coords, kv.value.id);
  }

  using MergeJob =
      mr::JobConfig<std::size_t, PointRec, std::size_t, PointRec, std::size_t, PointRec>;
  const std::size_t fan_in = config.merge_fan_in;
  std::vector<mr::KV<std::size_t, PointRec>> merge_input = std::move(job1_result.output);
  std::size_t groups = total_keys;
  for (std::size_t round = 1;; ++round) {
    const std::size_t next_groups = fan_in == 0 ? 1 : (groups + fan_in - 1) / fan_in;
    MergeJob job;
    job.name = "merge-round-" + std::to_string(round);
    job.num_map_tasks = config.effective_map_tasks();
    job.num_reduce_tasks = next_groups;
    job.partition_fn = [](const std::size_t& key, std::size_t buckets) { return key % buckets; };
    job.value_bytes_fn = [](const PointRec& rec) {
      return sizeof(data::PointId) + rec.coords.size() * sizeof(double);
    };
    job.map_fn = [fan_in](const std::size_t& group, const PointRec& rec,
                          mr::Emitter<std::size_t, PointRec>& out, mr::TaskContext& ctx) {
      ctx.charge_work(1);
      out.emit(fan_in == 0 ? 0 : group / fan_in, rec);
    };
    job.reduce_fn = [&kernel, dim](const std::size_t& group, std::vector<PointRec>& values,
                                   mr::Emitter<std::size_t, PointRec>& out,
                                   mr::TaskContext& ctx) {
      skyline::SkylineStats stats;
      const data::PointSet merged = kernel(to_point_set(dim, values), &stats);
      ctx.charge_work(stats.dominance_tests);
      ctx.increment("skyline.merged_points", merged.size());
      for (std::size_t i = 0; i < merged.size(); ++i) {
        out.emit(group, PointRec{merged.id(i), {merged.point(i).begin(), merged.point(i).end()}});
      }
    };
    auto merge_result = mr::run_job(job, merge_input, run_opts);
    result.merge_rounds.push_back(merge_result.metrics);
    groups = next_groups;
    if (groups <= 1) {
      data::PointSet skyline(dim);
      for (const auto& kv : merge_result.output) skyline.push_back(kv.value.coords, kv.value.id);
      result.skyline = std::move(skyline);
      break;
    }
    merge_input = std::move(merge_result.output);
  }

  // The spill decision run_job took per map task.
  const std::uint64_t budget = config.run_options.shuffle_spill_bytes;
  const auto spill_files = [budget, dim](mr::JobMetrics& job) {
    if (budget == 0) return;
    for (const mr::TaskMetrics& m : job.map_tasks) {
      const std::uint64_t bytes = m.records_out * (8 + 4 + 8 * dim);
      if (bytes * job.map_tasks.size() > budget) job.shuffle_spill_files += 1;
    }
  };
  spill_files(result.partition_job);
  for (mr::JobMetrics& round : result.merge_rounds) spill_files(round);
}

std::unordered_set<std::size_t> pruned_partitions(const part::Partitioner& partitioner,
                                                  const core::MRSkylineConfig& config) {
  std::unordered_set<std::size_t> pruned;
  if (config.apply_grid_pruning) {
    for (const std::size_t p : partitioner.prunable_partitions()) pruned.insert(p);
  }
  return pruned;
}

/// The record pipeline's resident run_mr_skyline.
core::MRSkylineResult reference_run(const data::PointSet& input,
                                    const core::MRSkylineConfig& config) {
  common::ScopedSpan no_trace;
  part::PartitionerPtr owned;
  const part::Partitioner* partitioner = config.prepared_partitioner;
  if (partitioner == nullptr) {
    owned = core::fit_partitioner(input, config, no_trace);
    partitioner = owned.get();
  }
  std::optional<skyline::TiledWindow> reps;
  if (config.representative_filter) {
    const data::PointSet sample = core::representative_sample(input, config.fit_sample_seed);
    reps.emplace(representative_tiles(
        sample, skyline::compute_skyline(sample, skyline::Algorithm::kBnl)));
  }
  core::MRSkylineResult result;
  reference_pipeline(input, *partitioner, pruned_partitions(*partitioner, config),
                     reps ? &*reps : nullptr, config, result);
  return result;
}

/// The record pipeline's streamed run_mr_skyline: job 1 reads the blocks
/// that survive pruning, in block order.
core::MRSkylineResult reference_run(const data::DatasetSource& source,
                                    const core::MRSkylineConfig& config) {
  const std::size_t dim = source.dim();
  const std::size_t target =
      config.fit_sample_size > 0 ? config.fit_sample_size : core::kOutOfCoreFitSample;
  const data::PointSet fit_sample =
      source.sample(std::min(target, source.size()), config.fit_sample_seed);
  part::PartitionerPtr owned;
  const part::Partitioner* partitioner = config.prepared_partitioner;
  if (partitioner == nullptr) {
    part::PartitionerOptions popts;
    popts.num_partitions = config.effective_partitions();
    popts.split_dim = config.split_dim;
    owned = part::make_partitioner(config.scheme, popts);
    owned->fit(fit_sample);
    partitioner = owned.get();
  }
  data::PointSet sample_sky(dim);
  if (config.block_prune || config.representative_filter) {
    sample_sky = skyline::compute_skyline(fit_sample, skyline::Algorithm::kBnl);
  }
  std::optional<skyline::TiledWindow> reps;
  if (config.representative_filter) reps.emplace(representative_tiles(fit_sample, sample_sky));
  const core::BlockPrune prune =
      core::prune_blocks(source, config.block_prune ? sample_sky : data::PointSet(dim));
  data::PointSet rows(dim);
  for (const std::size_t b : prune.kept) source.read_block(b, rows);
  core::MRSkylineResult result;
  reference_pipeline(rows, *partitioner, pruned_partitions(*partitioner, config),
                     reps ? &*reps : nullptr, config, result);
  result.partition_job.blocks_pruned = prune.blocks_pruned;
  result.partition_job.bytes_read = prune.bytes_read;
  result.partition_job.bytes_pruned = prune.bytes_pruned;
  return result;
}

// ---- Faulty user functions for the skip-bad-records cases ------------------

/// Forwards to a fitted partitioner, but throws on rows whose first
/// coordinate's bits are 0 mod 41: a bad record for the map stage.
class ThrowingPartitioner final : public part::Partitioner {
 public:
  explicit ThrowingPartitioner(part::PartitionerPtr inner) : inner_(std::move(inner)) {}
  void fit(const data::PointSet& ps) override { inner_->fit(ps); }
  [[nodiscard]] std::size_t assign(std::span<const double> point) const override {
    if (std::bit_cast<std::uint64_t>(point[0]) % 41 == 0) throw RuntimeError("bad row");
    return inner_->assign(point);
  }
  [[nodiscard]] std::size_t num_partitions() const noexcept override {
    return inner_->num_partitions();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::vector<std::size_t> prunable_partitions() const override {
    return inner_->prunable_partitions();
  }

 private:
  part::PartitionerPtr inner_;
};

/// BNL, but throws on a group holding an id that is 5 mod 29 when the group
/// has an odd size: a bad key group for the local and merge stages.
data::PointSet throwing_kernel(const data::PointSet& points, skyline::SkylineStats* stats) {
  if (points.size() % 2 == 1) {
    for (const data::PointId id : points.ids()) {
      if (id % 29 == 5) throw RuntimeError("bad group");
    }
  }
  return skyline::compute_skyline(points, skyline::Algorithm::kBnl, stats);
}

// ---- The sweep -------------------------------------------------------------

enum class Faults { kNone, kInjected, kSkipping, kAborting };

struct Case {
  data::PointSet points{1};
  core::MRSkylineConfig config;
  bool streamed = false;
  std::size_t block_rows = 32;
  Faults faults = Faults::kNone;
  std::string description;
};

Case make_case(std::uint64_t index) {
  common::Rng rng(index * 0x2545F4914F6CDD1DULL + 17);
  Case c;
  const std::size_t n = 150 + rng.uniform_index(450);
  const std::size_t dim = 2 + rng.uniform_index(4);
  const auto dist = static_cast<data::Distribution>(rng.uniform_index(4));
  c.points = data::generate(dist, n, dim, index + 101);
  c.streamed = index % 2 == 1;
  c.block_rows = 16 + rng.uniform_index(64);

  auto& cfg = c.config;
  const part::Scheme schemes[] = {part::Scheme::kAngular, part::Scheme::kGrid,
                                  part::Scheme::kDimensional};
  cfg.scheme = schemes[index % 3];
  cfg.servers = 2 + rng.uniform_index(4);
  const std::size_t fans[] = {0, 2, 3};
  cfg.merge_fan_in = fans[(index / 3) % 3];
  c.faults = static_cast<Faults>((index / 2) % 4);
  // The salting pass and the combiner run outside the attempt loop, where a
  // throwing partitioner or kernel aborts the run before any task skips.
  const bool throwing = c.faults == Faults::kSkipping || c.faults == Faults::kAborting;
  cfg.use_combiner = !throwing && rng.uniform() < 0.4;
  cfg.salt_oversized_partitions = !throwing && rng.uniform() < 0.3;
  cfg.representative_filter = rng.uniform() < 0.4;
  cfg.block_prune = rng.uniform() < 0.7;
  if (c.faults != Faults::kNone) {
    cfg.run_options.task_failure_probability = 0.1 + rng.uniform() * 0.2;
    cfg.run_options.max_task_attempts = 12;
    cfg.run_options.failure_seed = index * 13 + 5;
  }
  if (c.faults == Faults::kSkipping) cfg.run_options.skip_bad_records = true;
  if (throwing) cfg.local_skyline_override = throwing_kernel;
  const std::uint64_t budgets[] = {0, 1, 2048, 1u << 30};
  cfg.run_options.shuffle_spill_bytes = budgets[(index / 4) % 4];
  cfg.run_options.mode =
      (index / 8) % 2 == 0 ? mr::ExecutionMode::kSequential : mr::ExecutionMode::kThreads;
  cfg.run_options.num_threads = 3;

  c.description = "case " + std::to_string(index) + ": " + data::to_string(dist) +
                  " n=" + std::to_string(n) + " d=" + std::to_string(dim) +
                  (c.streamed ? " mrb" : " resident") + " scheme=" + part::to_string(cfg.scheme) +
                  " fan=" + std::to_string(cfg.merge_fan_in) +
                  (cfg.use_combiner ? " combiner" : "") +
                  (cfg.salt_oversized_partitions ? " salted" : "") +
                  (cfg.representative_filter ? " filter" : "") +
                  " faults=" + std::to_string(static_cast<int>(c.faults)) +
                  " spill=" + std::to_string(cfg.run_options.shuffle_spill_bytes) +
                  ((index / 8) % 2 == 0 ? " seq" : " threads");
  return c;
}

struct Bits {
  std::vector<data::PointId> ids;
  std::vector<std::uint64_t> coords;
  explicit Bits(const data::PointSet& ps) : ids(ps.ids().begin(), ps.ids().end()) {
    for (const double v : ps.raw()) coords.push_back(std::bit_cast<std::uint64_t>(v));
  }
  bool operator==(const Bits&) const = default;
};

void expect_same_tasks(const std::vector<mr::TaskMetrics>& actual,
                       const std::vector<mr::TaskMetrics>& expected, const std::string& where) {
  ASSERT_EQ(actual.size(), expected.size()) << where;
  for (std::size_t t = 0; t < actual.size(); ++t) {
    const mr::TaskMetrics& a = actual[t];
    const mr::TaskMetrics& e = expected[t];
    const std::string at = where + " task " + std::to_string(t);
    EXPECT_EQ(a.records_in, e.records_in) << at;
    EXPECT_EQ(a.records_out, e.records_out) << at;
    EXPECT_EQ(a.work_units, e.work_units) << at;
    EXPECT_EQ(a.attempts, e.attempts) << at;
    EXPECT_EQ(a.counters, e.counters) << at;
    EXPECT_EQ(a.records_skipped, e.records_skipped) << at;
    EXPECT_EQ(a.wasted_records, e.wasted_records) << at;
    EXPECT_EQ(a.wasted_work_units, e.wasted_work_units) << at;
    ASSERT_EQ(a.failure_events.size(), e.failure_events.size()) << at;
    for (std::size_t i = 0; i < a.failure_events.size(); ++i) {
      const mr::TaskFailureEvent& x = a.failure_events[i];
      const mr::TaskFailureEvent& y = e.failure_events[i];
      EXPECT_EQ(x.phase, y.phase) << at;
      EXPECT_EQ(x.task, y.task) << at;
      EXPECT_EQ(x.attempt, y.attempt) << at;
      EXPECT_EQ(x.records_processed, y.records_processed) << at;
      EXPECT_EQ(x.work_units_wasted, y.work_units_wasted) << at;
      EXPECT_EQ(x.injected, y.injected) << at;
      EXPECT_EQ(x.bad_record, y.bad_record) << at;
    }
  }
}

/// Every field but wall_ns, shuffle_ns and shuffle_spilled_bytes.
void expect_same_job(const mr::JobMetrics& actual, const mr::JobMetrics& expected,
                     const std::string& where) {
  EXPECT_EQ(actual.job_name, expected.job_name) << where;
  expect_same_tasks(actual.map_tasks, expected.map_tasks, where + " map");
  expect_same_tasks(actual.reduce_tasks, expected.reduce_tasks, where + " reduce");
  EXPECT_EQ(actual.shuffle_records, expected.shuffle_records) << where;
  EXPECT_EQ(actual.shuffle_bytes, expected.shuffle_bytes) << where;
  EXPECT_EQ(actual.shuffle_spill_files, expected.shuffle_spill_files) << where;
  EXPECT_EQ(actual.routed_records, expected.routed_records) << where;
  EXPECT_EQ(actual.blocks_pruned, expected.blocks_pruned) << where;
  EXPECT_EQ(actual.bytes_read, expected.bytes_read) << where;
  EXPECT_EQ(actual.bytes_pruned, expected.bytes_pruned) << where;
}

void expect_same_run(const core::MRSkylineResult& actual, const core::MRSkylineResult& expected,
                     const std::string& what) {
  EXPECT_TRUE(Bits(actual.skyline) == Bits(expected.skyline)) << what;
  ASSERT_EQ(actual.local_skylines.size(), expected.local_skylines.size()) << what;
  for (std::size_t p = 0; p < actual.local_skylines.size(); ++p) {
    EXPECT_TRUE(Bits(actual.local_skylines[p]) == Bits(expected.local_skylines[p]))
        << what << " partition " << p;
  }
  const part::PartitionReport& a = actual.partition_report;
  const part::PartitionReport& e = expected.partition_report;
  EXPECT_EQ(a.sizes, e.sizes) << what;
  EXPECT_EQ(a.non_empty, e.non_empty) << what;
  EXPECT_EQ(a.largest, e.largest) << what;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.balance_cv), std::bit_cast<std::uint64_t>(e.balance_cv))
      << what;
  EXPECT_EQ(a.prunable, e.prunable) << what;
  EXPECT_EQ(a.pruned_points, e.pruned_points) << what;
  expect_same_job(actual.partition_job, expected.partition_job, what + " job 1");
  ASSERT_EQ(actual.merge_rounds.size(), expected.merge_rounds.size()) << what;
  for (std::size_t r = 0; r < actual.merge_rounds.size(); ++r) {
    expect_same_job(actual.merge_rounds[r], expected.merge_rounds[r],
                    what + " merge round " + std::to_string(r + 1));
  }
}

/// A run's result, or the text of the RuntimeError it failed with — after
/// the "file:line: " prefix, whose path depends on the translation unit that
/// instantiated the engine template.
struct Outcome {
  std::optional<core::MRSkylineResult> result;
  std::string error;
};

template <typename Run>
Outcome outcome_of(const Run& run) {
  Outcome out;
  try {
    out.result.emplace(run());
  } catch (const RuntimeError& e) {
    const std::string what = e.what();
    const std::size_t at = what.find(".hpp:");
    const std::size_t text = at == std::string::npos ? at : what.find(": ", at);
    out.error = text == std::string::npos ? what : what.substr(text + 2);
  }
  return out;
}

class RowPipelineDifferential : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RowPipelineDifferential, MatchesTheRecordPipeline) {
  Case c = make_case(GetParam());
  const fs::path dir =
      fs::path(testing::TempDir()) /
      ("row-diff-" + std::to_string(::getpid()) + "-" + std::to_string(GetParam()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  c.config.run_options.spill_dir = dir.string();

  // Map-side bad records need a fitted partitioner that throws.
  std::unique_ptr<ThrowingPartitioner> throwing;
  if (c.faults == Faults::kSkipping || c.faults == Faults::kAborting) {
    part::PartitionerOptions popts;
    popts.num_partitions = c.config.effective_partitions();
    throwing = std::make_unique<ThrowingPartitioner>(
        part::make_partitioner(c.config.scheme, popts));
    throwing->fit(c.points);
    c.config.prepared_partitioner = throwing.get();
  }

  Outcome actual;
  Outcome expected;
  if (c.streamed) {
    const std::string path = (dir / "input.mrb").string();
    data::write_block_store(path, c.points.select(data::zorder_permutation(c.points)),
                            c.block_rows);
    const data::BlockStoreSource source(path);
    actual = outcome_of([&] { return core::run_mr_skyline(source, c.config); });
    expected = outcome_of([&] { return reference_run(source, c.config); });
    fs::remove(path);
  } else {
    actual = outcome_of([&] { return core::run_mr_skyline(c.points, c.config); });
    expected = outcome_of([&] { return reference_run(c.points, c.config); });
  }
  EXPECT_TRUE(fs::is_empty(dir)) << c.description << ": spill files outlived the run";
  fs::remove_all(dir);

  ASSERT_EQ(actual.result.has_value(), expected.result.has_value())
      << c.description << ": row pipeline error '" << actual.error << "', reference error '"
      << expected.error << "'";
  if (!actual.result) {
    // Under kThreads the first task to fail need not be the lowest.
    if (c.config.run_options.mode == mr::ExecutionMode::kSequential) {
      EXPECT_EQ(actual.error, expected.error) << c.description;
    }
    return;
  }
  expect_same_run(*actual.result, *expected.result, c.description);
  // A 1-byte budget spills every map task that shuffles a row.
  const mr::JobMetrics& job1 = actual.result->partition_job;
  if (c.config.run_options.shuffle_spill_bytes == 1 && job1.shuffle_records > 0) {
    EXPECT_GT(job1.shuffle_spill_files, 0u) << c.description;
    EXPECT_GT(job1.shuffle_spilled_bytes, 0u) << c.description;
  }
}

INSTANTIATE_TEST_SUITE_P(Cases, RowPipelineDifferential, testing::Range<std::uint64_t>(0, 96));

TEST(RowPipelineDifferential, SweepCoversEveryAxis) {
  // The sweep's axes, as make_case draws them, reach every value.
  std::vector<bool> seen(16, false);
  for (std::uint64_t i = 0; i < 96; ++i) {
    const Case c = make_case(i);
    seen[0] = seen[0] || c.streamed;
    seen[1] = seen[1] || !c.streamed;
    seen[2] = seen[2] || c.config.merge_fan_in == 0;
    seen[3] = seen[3] || c.config.merge_fan_in >= 2;
    seen[4] = seen[4] || c.config.use_combiner;
    seen[5] = seen[5] || c.config.salt_oversized_partitions;
    seen[6] = seen[6] || c.config.representative_filter;
    seen[7] = seen[7] || c.faults == Faults::kInjected;
    seen[8] = seen[8] || c.faults == Faults::kSkipping;
    seen[9] = seen[9] || c.faults == Faults::kAborting;
    seen[10] = seen[10] || c.config.run_options.shuffle_spill_bytes == 0;
    seen[11] = seen[11] || c.config.run_options.shuffle_spill_bytes == 1;
    seen[12] = seen[12] || c.config.run_options.mode == mr::ExecutionMode::kThreads;
    seen[13] = seen[13] || c.config.scheme == part::Scheme::kGrid;
    seen[14] = seen[14] || c.config.scheme == part::Scheme::kDimensional;
    seen[15] = seen[15] || c.config.scheme == part::Scheme::kAngular;
  }
  for (std::size_t axis = 0; axis < seen.size(); ++axis) EXPECT_TRUE(seen[axis]) << axis;
}

}  // namespace
}  // namespace mrsky
