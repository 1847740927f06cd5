#include "src/core/mr_skyline.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/timer.hpp"
#include "src/dataset/transforms.hpp"
#include "src/mapreduce/row_job.hpp"
#include "src/skyline/dominance_block.hpp"

namespace mrsky::core {

namespace {

/// Feeds a PointSet to job 1's map row by row: keys are the stable ids,
/// values are zero-copy spans over the row-major storage.
struct PointSetInput {
  const data::PointSet* ps;

  [[nodiscard]] std::size_t size() const noexcept { return ps->size(); }
  [[nodiscard]] data::PointId key(std::size_t i) const noexcept { return ps->id(i); }
  [[nodiscard]] std::span<const double> value(std::size_t i) const noexcept {
    return ps->point(i);
  }
};

/// Streams a DatasetSource's surviving blocks to the engine under the same
/// record interface as PointSetInput, addressed by a global row index over
/// the survivors. A thread-local cursor keeps exactly one block materialised
/// per worker thread and reloads on block crossings; map splits are
/// contiguous row ranges, so in the common case each block is read once per
/// pass (a retried task re-reads from its split start, which the
/// binary-search fallback handles). The span returned by value() stays valid
/// until the next key()/value() call on the same thread — job 1's map reads
/// the row's id first, then its coordinates, and copies them into its
/// bucket before it asks for the next row.
struct BlockInput {
  const data::DatasetSource* source = nullptr;
  std::vector<std::size_t> blocks;       ///< surviving block ids, ascending
  std::vector<std::size_t> row_offsets;  ///< prefix row counts, blocks.size() + 1
  /// Distinguishes this input from any earlier one that lived at the same
  /// address. Cursors are thread_local and outlive the input, so validity
  /// cannot rest on pointer identity — a later run's input can be allocated
  /// where a destroyed one was, and a cursor trusting the recycled address
  /// would index the new blocks vector with a stale slot.
  const std::uint64_t epoch = next_epoch();

  static std::uint64_t next_epoch() noexcept {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  [[nodiscard]] std::size_t size() const noexcept {
    return row_offsets.empty() ? 0 : row_offsets.back();
  }

  struct Cursor {
    std::uint64_t epoch = 0;  ///< owning input's epoch; 0 = empty
    std::size_t slot = 0;     ///< index into blocks
    std::size_t begin = 0;    ///< global row range of the loaded block
    std::size_t end = 0;
    data::PointSet rows{1};
  };

  Cursor& cursor_for(std::size_t i) const {
    thread_local Cursor cur;
    if (cur.epoch != epoch || i < cur.begin || i >= cur.end) load(cur, i);
    return cur;
  }

  void load(Cursor& cur, std::size_t i) const {
    const bool same_input = cur.epoch == epoch;
    std::size_t slot = 0;
    if (same_input && cur.slot + 1 < blocks.size() &&
        i >= row_offsets[cur.slot + 1] && i < row_offsets[cur.slot + 2]) {
      slot = cur.slot + 1;  // sequential fast path: the next block over
    } else {
      slot = static_cast<std::size_t>(std::upper_bound(row_offsets.begin(), row_offsets.end(),
                                                       i) -
                                      row_offsets.begin()) -
             1;
    }
    // Releasing is a paging hint: dropping the previous block's pages keeps
    // resident memory at ~one block per worker. Only touch blocks we loaded
    // through this input — a stale cursor from an earlier run must not poke
    // a source it no longer knows to be alive.
    if (same_input) source->release_block(blocks[cur.slot]);
    cur.epoch = epoch;
    cur.slot = slot;
    cur.begin = row_offsets[slot];
    cur.end = row_offsets[slot + 1];
    if (cur.rows.dim() != source->dim()) cur.rows = data::PointSet(source->dim());
    cur.rows.clear();
    source->read_block(blocks[slot], cur.rows);
  }

  [[nodiscard]] data::PointId key(std::size_t i) const {
    Cursor& cur = cursor_for(i);
    return cur.rows.id(i - cur.begin);
  }
  [[nodiscard]] std::span<const double> value(std::size_t i) const {
    Cursor& cur = cursor_for(i);
    return cur.rows.point(i - cur.begin);
  }
};

/// The representative filter's probe tiles: pick_representatives() packed
/// largest dominated volume first, so the first tile catches most rows.
/// Each lane's payload is the representative's id.
skyline::TiledWindow representative_tiles(const data::PointSet& sample,
                                          const data::PointSet& sample_skyline) {
  const data::PointSet reps = pick_representatives(sample, sample_skyline);
  skyline::TiledWindow tiles(sample.dim());
  for (std::size_t i = 0; i < reps.size(); ++i) tiles.push_back(reps.point(i), reps.id(i));
  return tiles;
}

/// The representative filter's probe: true when some representative
/// strictly dominates `row`. `tests` receives what a scalar filter compares —
/// representatives up to and including the first dominator, all of them for
/// a survivor — which the map task charges as work.
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

void throw_if_invalid(const std::vector<std::string>& errors) {
  if (errors.empty()) return;
  std::string message = "invalid MRSkylineConfig (" + std::to_string(errors.size()) +
                        (errors.size() == 1 ? " problem):" : " problems):");
  for (const std::string& e : errors) message += "\n  - " + e;
  throw InvalidArgument(message);
}

/// The partitioner a run routes with, and the partitions grid pruning drops.
struct RunPartitioner {
  part::PartitionerPtr owned;
  const part::Partitioner* partitioner = nullptr;
  std::unordered_set<std::size_t> pruned;
};

/// Fits `config`'s partitioner on `fit_input` under a `partition-fit` span,
/// unless the caller handed in an already-fitted one (prepared_partitioner —
/// the QueryEngine's per-(scheme, partitions, fit-sample) fit memo), whose
/// span then says so.
RunPartitioner prepare_partitioner(const data::PointSet& fit_input,
                                   const MRSkylineConfig& config) {
  common::TraceRecorder* const trace = config.run_options.trace;
  RunPartitioner run;
  run.partitioner = config.prepared_partitioner;
  if (run.partitioner == nullptr) {
    common::ScopedSpan fit_span(trace, "partition-fit", "plan");
    fit_span.arg("scheme", part::to_string(config.scheme));
    run.owned = fit_partitioner(fit_input, config, fit_span);
    run.partitioner = run.owned.get();
  } else if (trace != nullptr) {
    common::ScopedSpan fit_span(trace, "partition-fit", "plan");
    fit_span.arg("prepared", 1);
    fit_span.arg("partitions", run.partitioner->num_partitions());
  }
  if (config.apply_grid_pruning) {
    for (std::size_t p : run.partitioner->prunable_partitions()) run.pruned.insert(p);
  }
  return run;
}

/// The shared pipeline body — job 1 (partition + local skyline) and the
/// merge cascade — generic over the input view (PointSetInput streams a
/// resident PointSet, BlockInput streams a DatasetSource's surviving
/// blocks). The caller has already fitted the partitioner, decided the
/// pruned-partition set and, when the representative filter is on, packed
/// its `representatives` (null = filter off). The partition report comes
/// from job 1's own routing: it counts exactly the rows the map stage
/// shuffles.
template <typename Input>
void run_pipeline(const Input& input_view, std::size_t dim, const part::Partitioner& part_ref,
                  std::size_t partitions, const std::unordered_set<std::size_t>& pruned,
                  const skyline::TiledWindow* representatives, const MRSkylineConfig& config,
                  MRSkylineResult& result) {
  common::TraceRecorder* const trace = config.run_options.trace;

  // One persistent worker pool for the whole pipeline: created once here
  // (only when the caller asked for kThreads without supplying their own)
  // and reused by job 1 and every merge round, instead of paying thread
  // start-up per engine phase.
  mr::RunOptions run_opts = config.run_options;
  std::unique_ptr<common::ThreadPool> pipeline_pool;
  if (run_opts.mode == mr::ExecutionMode::kThreads && run_opts.pool == nullptr) {
    const std::size_t threads = run_opts.num_threads == 0
                                    ? common::ThreadPool::default_concurrency()
                                    : run_opts.num_threads;
    pipeline_pool = std::make_unique<common::ThreadPool>(threads);
    run_opts.pool = pipeline_pool.get();
  }

  // Optional skew cure: hash-salt oversized partitions into sub-keys, one
  // reduce task each (MRSkylineConfig::salt_oversized_partitions). Key space
  // is compacted: partition p owns keys [key_base[p], key_base[p+1]).
  // Salting needs partition sizes before job 1 runs, so it counts them over
  // the rows job 1 will shuffle — an extra pass only salted runs pay.
  std::vector<std::size_t> salt(partitions, 1);
  if (config.salt_oversized_partitions) {
    std::vector<std::size_t> sizes(partitions, 0);
    std::size_t rows = 0;
    for (std::size_t i = 0; i < input_view.size(); ++i) {
      const std::span<const double> row = input_view.value(i);
      std::uint64_t tests = 0;
      if (representatives != nullptr &&
          dominated_by_representatives(*representatives, row.data(), tests)) {
        continue;
      }
      sizes[part_ref.assign(row)] += 1;
      ++rows;
    }
    const double target = config.salt_target_factor * static_cast<double>(rows) /
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

  // The skyline kernel both local-skyline and merge stages run.
  auto kernel = [&config](const data::PointSet& points,
                          skyline::SkylineStats* stats) -> data::PointSet {
    if (config.local_skyline_override) return config.local_skyline_override(points, stats);
    return skyline::compute_skyline(points, config.local_algorithm, stats);
  };

  // --- Job 1: partition + local skyline (Algorithm 1, lines 1-10). ---
  mr::RowJobConfig job1;
  job1.name = "partition-local-skyline";
  job1.num_map_tasks = config.effective_map_tasks();
  // One reduce task per partition key: the identity routing makes reduce-task
  // metrics per-partition, which the cluster simulator load-balances.
  job1.num_reduce_tasks = total_keys;
  job1.dim = dim;

  job1.map_fn = [&input_view, &part_ref, &salt, &key_base, representatives, dim](
                    std::size_t row, mr::RowEmitter& out, mr::TaskContext& ctx) {
    const data::PointId id = input_view.key(row);
    const std::span<const double> coords = input_view.value(row);
    // The representative tiles are read-only, so concurrent map tasks share
    // them.
    if (representatives != nullptr) {
      std::uint64_t tests = 0;
      const bool dominated = dominated_by_representatives(*representatives, coords.data(), tests);
      ctx.charge_work(tests);
      if (dominated) return;
    }
    // Coordinate transform + sector lookup costs O(dim) arithmetic per point
    // for every scheme (Eq. 1 for MR-Angle, range scans for the others).
    ctx.charge_work(dim);
    const std::size_t p = part_ref.assign(coords);
    std::size_t key = key_base[p];
    if (salt[p] > 1) {
      // SplitMix-style avalanche of the stable id: deterministic sub-bucket.
      std::uint64_t h = (static_cast<std::uint64_t>(id) + 1) * 0x9e3779b97f4a7c15ULL;
      h ^= h >> 30;
      h *= 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 27;
      key += static_cast<std::size_t>(h % salt[p]);
    }
    out.emit(key, coords, id);
  };

  // The same local-skyline body serves as combiner and reducer, but each
  // phase reports under its own counter: `skyline.local_points` counts only
  // the reduce-side pass, so it equals the sum of the per-partition local
  // skyline sizes whether or not the combiner is enabled (the combine-side
  // pre-filter shows up as `skyline.combine_points` instead).
  auto make_local_skyline_fn = [&](const char* emitted_counter) {
    return [&, emitted_counter](std::size_t key, const data::PointSet& rows,
                                mr::TaskContext& ctx) -> data::PointSet {
      const std::size_t partition_id = key_to_partition[key];
      common::ScopedSpan span(trace, "local-skyline", "skyline");
      span.arg("partition", partition_id);
      span.arg("key", key);
      span.arg("points_in", rows.size());
      if (pruned.contains(partition_id)) {
        // §III-B: the whole cell is dominated — skip its local skyline.
        ctx.increment("skyline.points_pruned", rows.size());
        span.arg("pruned", 1);
        return data::PointSet(rows.dim());
      }
      skyline::SkylineStats stats;
      data::PointSet local = kernel(rows, &stats);
      ctx.charge_work(stats.dominance_tests);
      ctx.increment(emitted_counter, local.size());
      span.arg("skyline_points", local.size());
      span.arg("dominance_tests", stats.dominance_tests);
      return local;
    };
  };
  if (config.use_combiner) job1.combine_fn = make_local_skyline_fn("skyline.combine_points");
  job1.reduce_fn = make_local_skyline_fn("skyline.local_points");

  // Cooperative cancellation polls at pipeline split boundaries: before the
  // partition/local-skyline job and before every merge round. The row job
  // polls again inside each phase, so a stopping pipeline unwinds within one
  // task stride wherever it happens to be.
  run_opts.cancel.throw_if_stopped("partition/local-skyline job");
  auto job1_result = mr::run_row_job(job1, input_view.size(), run_opts);
  result.partition_job = std::move(job1_result.metrics);

  // The partition report: job 1 routed key k to reduce bucket k, and every
  // salted key folds back to its partition.
  std::vector<std::size_t> partition_sizes(partitions, 0);
  for (std::size_t k = 0; k < total_keys; ++k) {
    partition_sizes[key_to_partition[k]] += result.partition_job.routed_records[k];
  }
  result.partition_report = part::report_from_sizes(part_ref, std::move(partition_sizes));

  // Collect per-partition local skylines ("file st" in Algorithm 1): reduce
  // task k's output is key k's local skyline.
  result.local_skylines.assign(partitions, data::PointSet(dim));
  for (std::size_t k = 0; k < total_keys; ++k) {
    const data::PointSet& local = job1_result.output[k];
    result.local_skylines[key_to_partition[k]].append_rows(local.raw(), local.ids());
  }

  // --- Merge stage (Algorithm 1, lines 11-16). ---
  //
  // Each merge round is a (group, point) -> (group/fan_in, local skyline)
  // MapReduce job. With merge_fan_in == 0 there is exactly one round with a
  // single group — the paper's null-key single-reducer merge. With
  // merge_fan_in >= 2 groups shrink by that factor per round (tree merge).
  // A round's input is the previous job's output in reduce-task order; the
  // rows of task g belong to group g.
  const std::size_t fan_in = config.merge_fan_in;
  std::vector<data::PointSet> group_rows = std::move(job1_result.output);
  std::size_t groups = total_keys;
  std::size_t round = 0;
  for (;;) {
    ++round;
    run_opts.cancel.throw_if_stopped(
        ("merge round " + std::to_string(round)).c_str());
    const std::size_t next_groups =
        fan_in == 0 ? 1 : (groups + fan_in - 1) / fan_in;
    data::PointSet merge_input(dim);
    std::vector<std::size_t> group_of;
    for (std::size_t g = 0; g < group_rows.size(); ++g) {
      merge_input.append_rows(group_rows[g].raw(), group_rows[g].ids());
      group_of.insert(group_of.end(), group_rows[g].size(), g);
    }
    mr::RowJobConfig job;
    job.name = "merge-round-" + std::to_string(round);
    job.num_map_tasks = config.effective_map_tasks();
    job.num_reduce_tasks = next_groups;
    job.dim = dim;
    job.map_fn = [&merge_input, &group_of, fan_in](std::size_t row, mr::RowEmitter& out,
                                                   mr::TaskContext& ctx) {
      ctx.charge_work(1);
      // output(null/group, si)
      out.emit(fan_in == 0 ? 0 : group_of[row] / fan_in, merge_input.point(row),
               merge_input.id(row));
    };
    job.reduce_fn = [&kernel, trace](std::size_t group, const data::PointSet& rows,
                                     mr::TaskContext& ctx) -> data::PointSet {
      common::ScopedSpan span(trace, "merge-skyline", "skyline");
      span.arg("group", group);
      span.arg("points_in", rows.size());
      skyline::SkylineStats stats;
      data::PointSet merged = kernel(rows, &stats);
      ctx.charge_work(stats.dominance_tests);
      ctx.increment("skyline.merged_points", merged.size());
      span.arg("skyline_points", merged.size());
      span.arg("dominance_tests", stats.dominance_tests);
      return merged;
    };

    auto merge_result = mr::run_row_job(job, merge_input.size(), run_opts);
    result.merge_rounds.push_back(std::move(merge_result.metrics));
    groups = next_groups;
    if (groups <= 1) {
      result.skyline = std::move(merge_result.output.front());
      break;
    }
    group_rows = std::move(merge_result.output);
  }
}

}  // namespace

std::vector<std::string> MRSkylineConfig::validate() const {
  std::vector<std::string> errors;
  if (servers < 1) errors.emplace_back("servers: need at least one server");
  if (merge_fan_in == 1) {
    errors.emplace_back("merge_fan_in: must be 0 (single reducer) or >= 2 (tree merge)");
  }
  if (salt_oversized_partitions && salt_target_factor < 1.0) {
    errors.emplace_back("salt_target_factor: must be >= 1 when salting is enabled");
  }
  if (scheme == part::Scheme::kAngularRadial && servers >= 1 &&
      effective_partitions() % 2 != 0) {
    errors.emplace_back(
        "num_partitions: angular-radial needs an even count (sectors x 2 radius bands)");
  }
  if (run_options.max_task_attempts < 1) {
    errors.emplace_back("run_options.max_task_attempts: need at least one attempt per task");
  }
  if (run_options.task_failure_probability < 0.0 ||
      run_options.task_failure_probability >= 1.0) {
    errors.emplace_back(
        "run_options.task_failure_probability: must be in [0, 1) — at 1 every attempt fails");
  }
  return errors;
}

std::vector<std::string> MRSkylineConfig::validate_for(const data::DatasetSource& source) const {
  std::vector<std::string> errors = validate();
  if (source.resident() != nullptr && run_options.shuffle_spill_bytes > 0) {
    errors.emplace_back(
        "run_options.shuffle_spill_bytes: a spill budget has no effect on an in-memory "
        "source (the dataset already fits in RAM)");
  }
  return errors;
}

void MRSkylineConfig::validate_or_throw() const { throw_if_invalid(validate()); }

std::string MRSkylineResult::summary() const {
  std::ostringstream os;
  os << "MRSkyline run summary\n"
     << "  skyline points:      " << skyline.size() << "\n"
     << "  partitions:          " << local_skylines.size() << " ("
     << partition_report.non_empty << " non-empty, balance CV "
     << partition_report.balance_cv << ")\n"
     << "  pruned partitions:   " << partition_report.prunable.size() << " ("
     << partition_report.pruned_points << " points)\n";
  std::size_t local_total = 0;
  for (const auto& ls : local_skylines) local_total += ls.size();
  os << "  merge input:         " << local_total << " local-skyline points\n"
     << "  job 1 work:          " << partition_job.total_work_units() << " dominance tests, "
     << partition_job.shuffle_records << " shuffled records\n"
     << "  merge rounds:        " << merge_rounds.size() << " (final work "
     << merge_job().total_work_units() << ")\n";
  if (partition_job.blocks_pruned > 0 || partition_job.bytes_read > 0) {
    os << "  block input:         " << partition_job.bytes_read << " bytes read, "
       << partition_job.blocks_pruned << " blocks (" << partition_job.bytes_pruned
       << " bytes) pruned before read\n";
  }
  mr::FailureReport failures = partition_job.failure_report();
  for (const auto& round : merge_rounds) failures += round.failure_report();
  if (!failures.empty()) {
    os << "  fault tolerance:     " << failures.tasks_retried << " tasks retried, "
       << failures.wasted_records << " records + " << failures.wasted_work_units
       << " work units wasted, " << failures.records_skipped << " bad records skipped\n";
  }
  os << "  in-process wall:     " << wall_seconds << " s\n";
  return os.str();
}

mr::PhaseTimes MRSkylineResult::simulate(const mr::ClusterModel& model) const {
  std::vector<mr::JobMetrics> jobs;
  jobs.reserve(1 + merge_rounds.size());
  jobs.push_back(partition_job);
  jobs.insert(jobs.end(), merge_rounds.begin(), merge_rounds.end());
  return mr::simulate_pipeline(jobs, model);
}

part::PartitionerPtr fit_partitioner(const data::PointSet& input, const MRSkylineConfig& config,
                                     common::ScopedSpan& span) {
  part::PartitionerOptions popts;
  popts.num_partitions = config.effective_partitions();
  popts.split_dim = config.split_dim;
  part::PartitionerPtr partitioner = part::make_partitioner(config.scheme, popts);
  if (config.fit_sample_size > 0 && config.fit_sample_size < input.size()) {
    common::Rng rng(config.fit_sample_seed);
    partitioner->fit(data::sample_without_replacement(input, config.fit_sample_size, rng));
    span.arg("fitted_points", config.fit_sample_size);
  } else {
    partitioner->fit(input);
    span.arg("fitted_points", input.size());
  }
  span.arg("partitions", partitioner->num_partitions());
  return partitioner;
}

data::PointSet representative_sample(const data::PointSet& input, std::uint64_t seed) {
  const std::size_t n = input.size();
  const std::size_t take = std::min(kOutOfCoreFitSample, n);
  data::PointSet sample(input.dim());
  sample.reserve(take);
  if (take == 0) return sample;
  // Row (r·n + shift) / take for r < take: strictly increasing (n >= take)
  // and below n (shift < n), so the rows are distinct and spread evenly.
  common::Rng rng(seed);
  const std::size_t shift = static_cast<std::size_t>(rng.uniform_index(n));
  for (std::size_t r = 0; r < take; ++r) {
    const std::size_t i = (r * n + shift) / take;
    sample.push_back(input.point(i), input.id(i));
  }
  return sample;
}

data::PointSet pick_representatives(const data::PointSet& sample,
                                    const data::PointSet& sample_skyline) {
  const std::size_t dim = sample.dim();
  std::vector<double> max_corner(dim, -std::numeric_limits<double>::infinity());
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const std::span<const double> p = sample.point(i);
    for (std::size_t a = 0; a < dim; ++a) max_corner[a] = std::max(max_corner[a], p[a]);
  }
  std::vector<double> volume(sample_skyline.size());
  for (std::size_t s = 0; s < sample_skyline.size(); ++s) {
    const std::span<const double> p = sample_skyline.point(s);
    double v = 1.0;
    for (std::size_t a = 0; a < dim; ++a) v *= max_corner[a] - p[a];
    volume[s] = std::isnan(v) ? 0.0 : v;  // ∞ − ∞: keep the order total
  }
  std::vector<std::size_t> order(sample_skyline.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  const std::size_t keep = std::min(kFilterRepresentatives, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(keep), order.end(),
                    [&volume](std::size_t a, std::size_t b) {
                      return volume[a] != volume[b] ? volume[a] > volume[b] : a < b;
                    });
  order.resize(keep);
  return sample_skyline.select(order);
}

BlockPrune prune_blocks(const data::DatasetSource& source, const data::PointSet& dominators) {
  const std::size_t dim = source.dim();
  BlockPrune prune;
  prune.row_offsets.push_back(0);
  for (std::size_t b = 0; b < source.block_count(); ++b) {
    const data::BlockStats stats = source.block_stats(b);
    bool drop = false;
    for (std::size_t s = 0; stats.has_corners && !drop && s < dominators.size(); ++s) {
      const std::span<const double> p = dominators.point(s);
      bool dominates = true;
      for (std::size_t a = 0; dominates && a < dim; ++a) {
        dominates = p[a] < stats.min_corner[a];
      }
      drop = dominates;
    }
    if (drop) {
      ++prune.blocks_pruned;
      prune.bytes_pruned += stats.bytes;
    } else {
      prune.kept.push_back(b);
      prune.row_offsets.push_back(prune.row_offsets.back() + stats.rows);
      prune.bytes_read += stats.bytes;
    }
  }
  return prune;
}

MRSkylineResult run_mr_skyline(const data::PointSet& input, const MRSkylineConfig& config) {
  config.validate_or_throw();
  MRSKY_REQUIRE(!input.empty(), "cannot compute the skyline of an empty dataset");
  common::Timer wall;
  common::TraceRecorder* const trace = config.run_options.trace;
  common::ScopedSpan pipeline_span(trace, "mr-skyline", "pipeline");
  pipeline_span.arg("scheme", part::to_string(config.scheme));
  pipeline_span.arg("points", input.size());

  // The paper's master-side planning step.
  const RunPartitioner fit = prepare_partitioner(input, config);

  // The representative filter's set-up, traced under the streamed path's
  // pre-shuffle span name.
  std::optional<skyline::TiledWindow> representatives;
  if (config.representative_filter) {
    common::ScopedSpan prune_span(trace, "block-prune", "plan");
    const data::PointSet sample = representative_sample(input, config.fit_sample_seed);
    representatives.emplace(representative_tiles(
        sample, skyline::compute_skyline(sample, skyline::Algorithm::kBnl)));
    prune_span.arg("representatives", representatives->size());
  }

  MRSkylineResult result;
  run_pipeline(PointSetInput{&input}, input.dim(), *fit.partitioner,
               fit.partitioner->num_partitions(), fit.pruned,
               representatives ? &*representatives : nullptr, config, result);

  result.wall_seconds = wall.elapsed_seconds();
  return result;
}

MRSkylineResult run_mr_skyline(const data::DatasetSource& source,
                               const MRSkylineConfig& config) {
  throw_if_invalid(config.validate_for(source));
  if (const data::PointSet* resident = source.resident()) {
    // In-memory sources (PointSetSource, CSV already staged by the caller's
    // materialisation) carry no block corners and pay nothing for random
    // access: the classic path is strictly better, and bitwise identical.
    return run_mr_skyline(*resident, config);
  }
  MRSKY_REQUIRE(source.size() > 0, "cannot compute the skyline of an empty dataset");

  common::Timer wall;
  common::TraceRecorder* const trace = config.run_options.trace;
  common::ScopedSpan pipeline_span(trace, "mr-skyline", "pipeline");
  pipeline_span.arg("scheme", part::to_string(config.scheme));
  pipeline_span.arg("points", source.size());
  pipeline_span.arg("blocks", source.block_count());

  const std::size_t dim = source.dim();

  // One deterministic sample serves the partitioner fit, block pruning and
  // the representative filter — drawn block by block, so nothing is
  // materialised. When the config says "fit on everything"
  // (fit_sample_size == 0) we substitute a bounded sample instead:
  // assignment stays total, so the skyline is still exact; only partition
  // boundaries shift.
  const std::size_t sample_target =
      config.fit_sample_size > 0 ? config.fit_sample_size : kOutOfCoreFitSample;
  const data::PointSet fit_sample =
      source.sample(std::min(sample_target, source.size()), config.fit_sample_seed);

  // fit_sample never has more rows than a non-zero fit_sample_size, so
  // fit_partitioner fits on all of it.
  const RunPartitioner fit = prepare_partitioner(fit_sample, config);

  // Every sample-skyline point is a real dataset row, so both pre-shuffle
  // cuts are exact: a pruned block and a filtered row hold only dominated
  // rows, and dropping non-survivors never reorders the survivors, so the
  // final skyline is bitwise identical to the unpruned, unfiltered run.
  std::optional<skyline::TiledWindow> representatives;
  BlockPrune prune;
  {
    common::ScopedSpan prune_span(trace, "block-prune", "plan");
    data::PointSet sample_sky(dim);
    if (config.block_prune || config.representative_filter) {
      sample_sky = skyline::compute_skyline(fit_sample, skyline::Algorithm::kBnl);
    }
    if (config.representative_filter) {
      representatives.emplace(representative_tiles(fit_sample, sample_sky));
      prune_span.arg("representatives", representatives->size());
    }
    const data::PointSet no_dominators(dim);
    prune = prune_blocks(source, config.block_prune ? sample_sky : no_dominators);
    prune_span.arg("blocks_pruned", prune.blocks_pruned);
    prune_span.arg("bytes_pruned", prune.bytes_pruned);
    prune_span.arg("bytes_read", prune.bytes_read);
  }
  // At least one block always survives: the block holding a sample-skyline
  // point cannot have its min corner strictly dominated by any sample-skyline
  // point (that dominator would have knocked the resident point out).
  MRSKY_ASSERT(!prune.kept.empty(), "block pruning dropped every block");
  BlockInput stream;
  stream.source = &source;
  stream.blocks = std::move(prune.kept);
  stream.row_offsets = std::move(prune.row_offsets);

  MRSkylineResult result;
  run_pipeline(stream, dim, *fit.partitioner, fit.partitioner->num_partitions(), fit.pruned,
               representatives ? &*representatives : nullptr, config, result);
  result.partition_job.blocks_pruned = prune.blocks_pruned;
  result.partition_job.bytes_read = prune.bytes_read;
  result.partition_job.bytes_pruned = prune.bytes_pruned;

  result.wall_seconds = wall.elapsed_seconds();
  return result;
}

}  // namespace mrsky::core
