// MapReduce skyline query processing — the paper's Algorithm 1, generalised
// over the three partitioning schemes of §III (plus this library's extras).
//
// The driver runs the paper's two Hadoop jobs on the mrsky::mr engine:
//
//   Job 1 "partition+local-skyline":
//     map     — transform the point (hyperspherical for MR-Angle), assign its
//               partition, emit (partition, point)            [Alg. 1, l.2-6]
//               With MRSkylineConfig::representative_filter on, a row that
//               a fit-sample skyline point dominates is dropped first.
//     combine — optional map-side BNL per partition fragment (off by default;
//               Algorithm 1 has no combiner — see MRSkylineConfig)
//     reduce  — BNL computing each partition's local skyline  [Alg. 1, l.7-10]
//               MR-Grid's prunable partitions are skipped here (§III-B).
//   Job 2 "merge":
//     map     — re-key every local-skyline point to the null key [l.12-14]
//     reduce  — one global BNL merge                             [l.15]
//
// All dominance tests are charged to the engine's work counters, so the
// cluster simulator (mr::simulate_pipeline) can turn one in-process run into
// simulated Map/Reduce times for any server count.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/trace.hpp"
#include "src/dataset/point_set.hpp"
#include "src/dataset/source.hpp"
#include "src/mapreduce/cluster.hpp"
#include "src/mapreduce/job.hpp"
#include "src/partition/factory.hpp"
#include "src/partition/stats.hpp"
#include "src/skyline/algorithms.hpp"

namespace mrsky::core {

struct MRSkylineConfig {
  part::Scheme scheme = part::Scheme::kAngular;

  /// Cluster size the job is sized for. Defaults below derive from it.
  std::size_t servers = 8;

  /// Number of data-space partitions; 0 means the paper's 2 × servers.
  std::size_t num_partitions = 0;

  /// Number of input splits; 0 means servers × 2 (one per default map slot).
  std::size_t num_map_tasks = 0;

  /// Local/global skyline algorithm (the paper uses BNL everywhere).
  skyline::Algorithm local_algorithm = skyline::Algorithm::kBnl;

  /// Optional override for the local/merge skyline kernel. When set it
  /// replaces `local_algorithm` entirely; the function must return the exact
  /// skyline of its input and accumulate its dominance tests into the stats
  /// (pass-through to the cluster cost model). This is the hook for plugging
  /// index-based kernels (e.g. spatial::bbs_skyline) into the pipeline
  /// without coupling the core to them.
  std::function<data::PointSet(const data::PointSet&, skyline::SkylineStats*)>
      local_skyline_override;

  /// Map-side combining (partial local skylines inside each map task).
  /// Off by default: the paper's Algorithm 1 computes local skylines only in
  /// the reduce stage. Enabling it is this library's extension (see the
  /// ablation bench) — it cuts shuffle volume and reduce work substantially.
  bool use_combiner = false;

  /// Honour MR-Grid's inter-cell dominance pruning (§III-B).
  bool apply_grid_pruning = true;

  /// Out-of-core runs only: before the map stage reads a block, drop it
  /// whole when its min corner is strictly dominated in every attribute by
  /// some point of the fit sample's skyline. Every point in such a block is
  /// dominated by a real dataset point, so the final skyline is bitwise
  /// identical with or without the skip — only `bytes_read` changes. The
  /// pruned volume is reported on the job-1 metrics (`blocks_pruned`,
  /// `bytes_pruned`). Ignored by the in-memory PointSet overload, whose
  /// virtual blocks carry no corners.
  bool block_prune = true;

  /// Representative filter (extension; off by default like use_combiner,
  /// on in service::QueryEngineOptions): job 1's map drops every row that
  /// one of at most kFilterRepresentatives fit-sample skyline points
  /// strictly dominates, before the row gets a partition. Every
  /// representative is a real dataset row and a row equal to one is not
  /// dominated by it, so no skyline member and no duplicate of one is
  /// dropped: the skyline keeps the same members with the same bits. The
  /// probes are charged as map work. With the filter on, job 1's routing —
  /// and so `partition_report` — counts only the surviving rows; the
  /// dropped rows are Σ map records_in − Σ routed_records. Streamed runs
  /// pick the representatives from the fit sample block pruning uses,
  /// resident runs from representative_sample() (DESIGN.md decision 17).
  bool representative_filter = false;

  /// MR-Dim only: attribute carrying the slabs.
  std::size_t split_dim = 0;

  /// Merge topology. 0 (the paper's Algorithm 1): one job funnels every
  /// local-skyline point to a single reducer. >= 2: tree merge — repeated
  /// jobs combine `merge_fan_in` partitions per reducer until one group
  /// remains, trading extra job startups for parallel merge rounds. This is
  /// the library's answer to the Fig. 6 single-reducer bottleneck (the
  /// paper's Twister/iterative-MapReduce remark, §II).
  std::size_t merge_fan_in = 0;

  /// Engine execution (sequential by default; results identical either way).
  /// Under kThreads the pipeline creates one persistent worker pool and
  /// reuses it across job 1 and every merge round; set run_options.pool to
  /// share a caller-owned pool across many run_mr_skyline calls instead.
  mr::RunOptions run_options;

  /// Skew cure (extension): split any partition whose population exceeds
  /// `salt_target_factor` × N/Np into that many hash-salted sub-partitions,
  /// each its own local-skyline reduce task. N and the populations count the
  /// rows job 1 streams (a streamed run's surviving rows), in one extra
  /// counting pass before job 1. Standard MapReduce salting: it
  /// bounds the largest reduce task at the cost of a larger merge input
  /// (sub-skylines of one cone overlap). Fixes MR-Angle's dense-sector
  /// imbalance on direction-clumped data; quantified in bench/ablation_salting.
  bool salt_oversized_partitions = false;
  double salt_target_factor = 2.0;

  /// Fit the partitioner on a uniform sample of this many points instead of
  /// the full dataset (0 = fit on everything, the paper's behaviour). The
  /// master-side planning step then scales independently of N; assignment
  /// stays total, so the result is still the exact skyline — only partition
  /// boundaries (and thus load balance) shift slightly.
  std::size_t fit_sample_size = 0;

  /// Seed for the fitting sample (resident runs use it when
  /// fit_sample_size > 0, streamed runs always), and for the representative
  /// filter's sample.
  std::uint64_t fit_sample_seed = 0x5a3e;

  /// Prepared-partition hook (service::QueryEngine's fit amortisation): when
  /// set, run_mr_skyline skips partitioner construction and fitting entirely
  /// and routes every point through this already-fitted object instead. The
  /// caller keeps ownership and must keep it alive (and fitted) for the whole
  /// run; `scheme`, `num_partitions`, `split_dim` and the fit_sample_* knobs
  /// are ignored. assign() must be pure and thread-safe, which the
  /// part::Partitioner contract already guarantees after fit(). Assignment is
  /// total for every scheme, so reusing a fit across queries — even one
  /// fitted before later insertions — still yields the exact skyline; only
  /// load balance (and MR-Grid's pruning opportunities, recomputed per fit)
  /// can degrade.
  const part::Partitioner* prepared_partitioner = nullptr;

  [[nodiscard]] std::size_t effective_partitions() const noexcept {
    return num_partitions == 0 ? 2 * servers : num_partitions;
  }
  [[nodiscard]] std::size_t effective_map_tasks() const noexcept {
    return num_map_tasks == 0 ? 2 * servers : num_map_tasks;
  }

  /// Validates every config-level precondition and returns ALL violations —
  /// one human-readable message per problem, empty when the config is usable.
  /// Unlike the first-failure MRSKY_REQUIRE style this used to be spread
  /// across the pipeline, a caller (CLI flag parsing, the QueryEngine,
  /// plan_config's self-check) gets the complete list in one round trip.
  [[nodiscard]] std::vector<std::string> validate() const;

  /// validate() plus the source-compatibility checks: some options only make
  /// sense against a particular kind of DatasetSource (e.g. a shuffle spill
  /// budget against an in-memory source, which by definition already fits in
  /// RAM). Same all-errors contract as validate(); the DatasetSource overload
  /// of run_mr_skyline calls this instead of validate().
  [[nodiscard]] std::vector<std::string> validate_for(const data::DatasetSource& source) const;

  /// Throws mrsky::InvalidArgument listing every validate() error in one
  /// message; no-op on a valid config. Called at the top of run_mr_skyline.
  void validate_or_throw() const;
};

/// Representatives the filter probes at most (four 8-lane tiles).
inline constexpr std::size_t kFilterRepresentatives = 32;

/// Rows a streamed run samples to fit and prune when fit_sample_size is 0
/// (fitting on everything would materialise the file), and rows a resident
/// run samples for the representative filter.
inline constexpr std::size_t kOutOfCoreFitSample = 4096;

/// The resident fit: makes `config`'s partitioner (scheme, partitions,
/// split_dim) and fits it on a `fit_sample_size`-row
/// data::sample_without_replacement drawn with `fit_sample_seed` when
/// 0 < fit_sample_size < N, on every row of `input` otherwise. Records the
/// rows fitted (`fitted_points`) and the partition count (`partitions`) on
/// `span`. run_mr_skyline's resident path and the QueryEngine's fit memo
/// both fit through it.
[[nodiscard]] part::PartitionerPtr fit_partitioner(const data::PointSet& input,
                                                   const MRSkylineConfig& config,
                                                   common::ScopedSpan& span);

/// The representative filter's sample of a resident input: min(
/// kOutOfCoreFitSample, N) rows at evenly spaced positions shifted by a
/// `seed`-derived offset, in input order. O(sample) time and memory.
[[nodiscard]] data::PointSet representative_sample(const data::PointSet& input,
                                                   std::uint64_t seed);

/// The representative filter's probe points: the at most
/// kFilterRepresentatives points of `sample_skyline` (the BNL skyline of
/// `sample`, so in sample order) with the largest dominated volume
/// ∏(max_a − p_a), measured against `sample`'s max corner. Largest first;
/// ties keep sample order.
[[nodiscard]] data::PointSet pick_representatives(const data::PointSet& sample,
                                                  const data::PointSet& sample_skyline);

/// Pre-shuffle block pruning: a block whose min corner is *strictly*
/// dominated in every attribute by one of `dominators` (real dataset rows)
/// holds only dominated rows and is skipped before it is read.
/// Strict-everywhere keeps the test sound with duplicates and with rows on
/// the corner itself. Blocks without corners are always kept. The streamed
/// run_mr_skyline overload calls this with its fit sample's skyline.
struct BlockPrune {
  std::vector<std::size_t> kept;         ///< surviving block ids, ascending
  std::vector<std::size_t> row_offsets;  ///< prefix row counts, kept.size() + 1
  std::uint64_t blocks_pruned = 0;
  std::uint64_t bytes_pruned = 0;
  std::uint64_t bytes_read = 0;  ///< payload bytes of the kept blocks
};
[[nodiscard]] BlockPrune prune_blocks(const data::DatasetSource& source,
                                      const data::PointSet& dominators);

struct MRSkylineResult {
  data::PointSet skyline;                        ///< the global skyline
  std::vector<data::PointSet> local_skylines;    ///< per partition (post Job 1)
  /// Sizes / balance / pruning, counted from job 1's own routing: every
  /// input point of a resident run, the surviving blocks' rows of a streamed
  /// one, and with representative_filter on only the rows the filter keeps
  /// (see src/partition/stats.hpp).
  part::PartitionReport partition_report;
  mr::JobMetrics partition_job;                  ///< Job 1 metrics
  /// All merge rounds in execution order (size 1 with merge_fan_in = 0,
  /// never empty after a run).
  std::vector<mr::JobMetrics> merge_rounds;
  double wall_seconds = 0.0;                     ///< real in-process time

  MRSkylineResult() : skyline(1) {}

  /// Final merge round metrics. This *is* the last element of merge_rounds —
  /// the "always aliases the last element" contract used to be a doc comment
  /// over a separate copy; it is now structural. Requires a completed run
  /// (throws on a default-constructed result).
  [[nodiscard]] const mr::JobMetrics& merge_job() const {
    MRSKY_REQUIRE(!merge_rounds.empty(), "merge_job() requires a completed run");
    return merge_rounds.back();
  }

  /// Simulated phase times of the whole pipeline on a modelled cluster.
  [[nodiscard]] mr::PhaseTimes simulate(const mr::ClusterModel& model) const;

  /// Multi-line human-readable run report (skyline size, partition balance,
  /// per-job work) — what the CLI prints with --verbose.
  [[nodiscard]] std::string summary() const;
};

/// Runs the full two-job pipeline over `input` (minimisation orientation,
/// non-negative coordinates required by MR-Angle's transform). Thin adapter
/// over the DatasetSource pipeline below for callers that already hold the
/// data in memory; new call sites should prefer the DatasetSource overload.
/// With config.representative_filter on, the run first draws
/// representative_sample() and packs pick_representatives() of its BNL
/// skyline into the map stage's probe (traced as a "block-prune" span).
[[nodiscard]] MRSkylineResult run_mr_skyline(const data::PointSet& input,
                                             const MRSkylineConfig& config);

/// Runs the pipeline streaming from a DatasetSource. Map tasks iterate the
/// source block by block instead of over a materialised PointSet, so peak
/// memory is bounded by a handful of blocks regardless of dataset size.
/// The run reads the source in two passes: the fit sample (rows from every
/// block with a non-zero sample quota), then the map stage's single pass
/// over the blocks that survive pruning. Blocks whose min corner is
/// strictly dominated by a sample-skyline point are skipped by the map
/// stage (config.block_prune, sound — see prune_blocks); the job-1
/// metrics report `blocks_pruned`, `bytes_read` and `bytes_pruned`. The
/// fit sample's skyline is computed once and serves both block pruning and
/// config.representative_filter's representatives. A
/// salted run (config.salt_oversized_partitions) reads the surviving blocks
/// once more to size its salts. The skyline is the SAME POINT SET as
/// the in-memory overload computes on the same data, every member bitwise
/// identical (compare canonically, e.g. ordered by id). Result *order*
/// additionally matches whenever both runs use the same partitioning —
/// e.g. a shared config.prepared_partitioner, or fit_sample_size == 0 on a
/// resident source. It can differ otherwise because an out-of-core run must
/// fit the partitioner on a bounded block sample where the in-memory run
/// fits on everything, and partition boundaries steer the merge cascade's
/// emission order (never its membership). Sources with a resident PointSet
/// (data::PointSetSource) short-circuit to the in-memory path.
[[nodiscard]] MRSkylineResult run_mr_skyline(const data::DatasetSource& source,
                                             const MRSkylineConfig& config);

}  // namespace mrsky::core
