// Differential sweep of the row-job pipeline against the record pipeline it
// replaced. run_mr_skyline moves each point through job 1 and the merge
// rounds as a flat row (src/mapreduce/row_job.hpp); before, each point was a
// PointRec — an id plus its own heap vector — carried as a keyed record.
// That record pipeline is kept here as the reference, with its resident and
// streamed front halves (fit, filter, block pruning), on a sequential record
// engine of its own built on the engine's attempt loop and splits. Over
// seeded cases — resident and `.mrb` inputs, MR-Angle/Grid/Dim, fan-in 0 and
// ≥ 2, combiner, salting, representative filter, injected faults with and
// without skip-bad-records (a partitioner and a kernel that throw on some
// inputs), spill budgets from 1 byte to none, kSequential and kThreads —
// both must give the same skyline bits and order, local skylines, partition
// report, and every JobMetrics field but the walls (wall_ns, shuffle_ns) and
// shuffle_spilled_bytes; or fail with the same error.
//
// The reference does not spill: a spill never changes a record, so its
// shuffle_spill_files is the count of map tasks whose shuffle bytes × map
// tasks exceed the budget — the decision the row job makes.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
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

/// A keyed record; key k goes to reduce bucket k mod the bucket count.
struct Rec {
  std::size_t key = 0;
  PointRec value;
};

struct RecordJob {
  std::string name;
  std::size_t num_map_tasks = 1;
  std::size_t num_reduce_tasks = 1;
  /// Maps input row `row` into zero or more records.
  std::function<void(std::size_t row, std::vector<Rec>& out, mr::TaskContext& ctx)> map_fn;
  /// Turns one key group's values into records.
  using GroupFn = std::function<void(std::size_t key, std::vector<PointRec>& values,
                                     std::vector<Rec>& out, mr::TaskContext& ctx)>;
  GroupFn combine_fn;  ///< optional, per map task
  GroupFn reduce_fn;
};

struct RecordJobResult {
  std::vector<Rec> output;  ///< reduce task order, key order within a task
  mr::JobMetrics metrics;
};

/// Half-open runs of equal keys in `recs`, after stable-sorting it by key.
std::vector<std::pair<std::size_t, std::size_t>> sort_into_groups(std::vector<Rec>& recs) {
  std::stable_sort(recs.begin(), recs.end(),
                   [](const Rec& a, const Rec& b) { return a.key < b.key; });
  std::vector<std::pair<std::size_t, std::size_t>> groups;
  for (std::size_t i = 0; i < recs.size();) {
    std::size_t j = i + 1;
    while (j < recs.size() && recs[j].key == recs[i].key) ++j;
    groups.emplace_back(i, j);
    i = j;
  }
  return groups;
}

/// Runs `job` over `input_rows` rows of `dim` attributes, one task at a
/// time. A map task maps its split under the attempt loop, counts its
/// routing, then combines its records by key; each bucket is the map tasks'
/// records in map-task order, stable-sorted by key and reduced one key group
/// per attempt unit. A record crossing the shuffle is charged 8 + 4 + 8·dim
/// bytes: key, id, coordinates.
RecordJobResult run_record_job(const RecordJob& job, std::size_t input_rows, std::size_t dim,
                               const mr::RunOptions& opts) {
  const std::size_t maps = job.num_map_tasks;
  const std::size_t reduces = job.num_reduce_tasks;
  RecordJobResult result;
  mr::JobMetrics& metrics = result.metrics;
  metrics.job_name = job.name;
  metrics.map_tasks.resize(maps);
  metrics.reduce_tasks.resize(reduces);
  metrics.routed_records.assign(reduces, 0);
  common::ScopedSpan no_span;

  std::vector<std::vector<Rec>> buckets(reduces);
  const auto offsets = mr::detail::split_offsets(input_rows, maps);
  for (std::size_t t = 0; t < maps; ++t) {
    mr::TaskContext ctx;
    std::vector<Rec> out;
    auto outcome = mr::detail::run_task_attempts(
        opts, job.name, /*phase=*/0, t, offsets[t + 1] - offsets[t], ctx, [&out] { out.clear(); },
        [&](std::size_t i, mr::TaskContext& attempt_ctx, bool) -> std::uint64_t {
          job.map_fn(offsets[t] + i, out, attempt_ctx);
          return 1;
        });
    for (const Rec& rec : out) metrics.routed_records[rec.key % reduces] += 1;
    if (job.combine_fn) {
      std::vector<Rec> combined;
      for (const auto& [first, last] : sort_into_groups(out)) {
        std::vector<PointRec> values;
        for (std::size_t r = first; r < last; ++r) values.push_back(std::move(out[r].value));
        job.combine_fn(out[first].key, values, combined, ctx);
      }
      out = std::move(combined);
    }
    mr::TaskMetrics& m = metrics.map_tasks[t];
    m.records_in = offsets[t + 1] - offsets[t];
    m.records_out = out.size();
    metrics.shuffle_records += out.size();
    metrics.shuffle_bytes += out.size() * (8 + 4 + 8 * dim);
    for (Rec& rec : out) buckets[rec.key % reduces].push_back(std::move(rec));
    mr::detail::finish_task(m, ctx, std::move(outcome), 0, no_span);
  }

  for (std::size_t b = 0; b < reduces; ++b) {
    std::vector<Rec>& bucket = buckets[b];
    const auto groups = sort_into_groups(bucket);
    mr::TaskContext ctx;
    std::vector<Rec> out;
    auto outcome = mr::detail::run_task_attempts(
        opts, job.name, /*phase=*/1, b, groups.size(), ctx, [&out] { out.clear(); },
        [&](std::size_t g, mr::TaskContext& attempt_ctx, bool may_fail) -> std::uint64_t {
          const auto [first, last] = groups[g];
          std::vector<PointRec> values;
          for (std::size_t r = first; r < last; ++r) {
            // A discardable attempt leaves the bucket whole for its retry.
            if (may_fail) {
              values.push_back(bucket[r].value);
            } else {
              values.push_back(std::move(bucket[r].value));
            }
          }
          job.reduce_fn(bucket[first].key, values, out, attempt_ctx);
          return last - first;
        });
    mr::TaskMetrics& m = metrics.reduce_tasks[b];
    m.records_in = bucket.size();
    m.records_out = out.size();
    mr::detail::finish_task(m, ctx, std::move(outcome), 0, no_span);
    result.output.insert(result.output.end(), std::make_move_iterator(out.begin()),
                         std::make_move_iterator(out.end()));
  }
  return result;
}

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
  const mr::RunOptions& run_opts = config.run_options;

  std::vector<std::size_t> salt(partitions, 1);
  if (config.salt_oversized_partitions) {
    std::vector<std::size_t> sizes(partitions, 0);
    std::size_t count = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::span<const double> row = rows.point(i);
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

  RecordJob job1;
  job1.name = "partition-local-skyline";
  job1.num_map_tasks = config.effective_map_tasks();
  job1.num_reduce_tasks = total_keys;
  job1.map_fn = [&rows, &part_ref, &salt, &key_base, representatives, dim](
                    std::size_t row, std::vector<Rec>& out, mr::TaskContext& ctx) {
    const data::PointId id = rows.id(row);
    const std::span<const double> coords = rows.point(row);
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
    out.push_back({key, PointRec{id, {coords.begin(), coords.end()}}});
  };
  auto make_local_skyline_fn = [&, dim](const char* emitted_counter) {
    return [&, dim, emitted_counter](std::size_t key, std::vector<PointRec>& values,
                                     std::vector<Rec>& out, mr::TaskContext& ctx) {
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
        out.push_back({key, PointRec{local.id(i), {local.point(i).begin(), local.point(i).end()}}});
      }
    };
  };
  if (config.use_combiner) job1.combine_fn = make_local_skyline_fn("skyline.combine_points");
  job1.reduce_fn = make_local_skyline_fn("skyline.local_points");

  auto job1_result = run_record_job(job1, rows.size(), dim, run_opts);
  result.partition_job = std::move(job1_result.metrics);

  std::vector<std::size_t> partition_sizes(partitions, 0);
  for (std::size_t k = 0; k < total_keys; ++k) {
    partition_sizes[key_to_partition[k]] += result.partition_job.routed_records[k];
  }
  result.partition_report = part::report_from_sizes(part_ref, std::move(partition_sizes));
  result.local_skylines.assign(partitions, data::PointSet(dim));
  for (const Rec& rec : job1_result.output) {
    result.local_skylines[key_to_partition[rec.key]].push_back(rec.value.coords, rec.value.id);
  }

  const std::size_t fan_in = config.merge_fan_in;
  std::vector<Rec> merge_input = std::move(job1_result.output);
  std::size_t groups = total_keys;
  for (std::size_t round = 1;; ++round) {
    const std::size_t next_groups = fan_in == 0 ? 1 : (groups + fan_in - 1) / fan_in;
    RecordJob job;
    job.name = "merge-round-" + std::to_string(round);
    job.num_map_tasks = config.effective_map_tasks();
    job.num_reduce_tasks = next_groups;
    job.map_fn = [&merge_input, fan_in](std::size_t row, std::vector<Rec>& out,
                                        mr::TaskContext& ctx) {
      ctx.charge_work(1);
      const Rec& rec = merge_input[row];
      out.push_back({fan_in == 0 ? 0 : rec.key / fan_in, rec.value});
    };
    job.reduce_fn = [&kernel, dim](std::size_t group, std::vector<PointRec>& values,
                                   std::vector<Rec>& out, mr::TaskContext& ctx) {
      skyline::SkylineStats stats;
      const data::PointSet merged = kernel(to_point_set(dim, values), &stats);
      ctx.charge_work(stats.dominance_tests);
      ctx.increment("skyline.merged_points", merged.size());
      for (std::size_t i = 0; i < merged.size(); ++i) {
        out.push_back(
            {group, PointRec{merged.id(i), {merged.point(i).begin(), merged.point(i).end()}}});
      }
    };
    auto merge_result = run_record_job(job, merge_input.size(), dim, run_opts);
    result.merge_rounds.push_back(merge_result.metrics);
    groups = next_groups;
    if (groups <= 1) {
      data::PointSet skyline(dim);
      for (const Rec& rec : merge_result.output) skyline.push_back(rec.value.coords, rec.value.id);
      result.skyline = std::move(skyline);
      break;
    }
    merge_input = std::move(merge_result.output);
  }

  // The spill decision the row job takes per map task.
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

/// A run's result, or the text of the RuntimeError it failed with. Every
/// target includes from the repository root, so the "file:line: " prefix
/// names the same file from the pipeline and from this test.
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
    out.error = e.what();
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
