// Partition diagnostics: how balanced is an assignment, and how big are the
// pieces each local-skyline task will see. Used by tests, ablation benches
// and the examples to explain *why* the schemes differ.
//
// run_mr_skyline reports the same figures from job 1's own routing
// (`MRSkylineResult::partition_report`, via report_from_sizes), so a
// pipeline run makes no extra pass over its input to fill them in. The rows
// counted are the rows job 1 streams, before any combine:
//   * a resident input: every point, so the report equals
//     analyze_partitioning(partitioner, input) for every config;
//   * an out-of-core input: the rows of the blocks that survive corner
//     pruning — the rows its local-skyline tasks actually see;
//   * with MRSkylineConfig::representative_filter on (the QueryEngine's
//     default), only the rows the filter keeps, of either kind of input.
// A streamed report therefore differs from analyze_partitioning over the
// whole file whenever blocks are pruned (on 2M-row Z-ordered independent
// 4-d files, balance_cv averages 0.74 over the surviving rows against 0.93
// over the whole file). That difference is the definition — pruned rows
// never reach a local-skyline task — not a change in how the partitioner
// balances. The filtered report is the same definition again; its dropped
// rows are Σ map records_in − Σ routed_records of job 1.
#pragma once

#include <cstddef>
#include <vector>

#include "src/dataset/point_set.hpp"
#include "src/partition/partitioner.hpp"

namespace mrsky::part {

struct PartitionReport {
  std::vector<std::size_t> sizes;        ///< points per partition
  std::size_t non_empty = 0;             ///< partitions with >= 1 point
  std::size_t largest = 0;               ///< max points in one partition
  double balance_cv = 0.0;               ///< coefficient of variation of sizes
  std::vector<std::size_t> prunable;     ///< partitions droppable before local skyline
  std::size_t pruned_points = 0;         ///< points inside prunable partitions
};

/// Fits nothing — `partitioner` must already be fitted on (a superset of)
/// `ps`. Computes the report for `ps` under that partitioner.
[[nodiscard]] PartitionReport analyze_partitioning(const Partitioner& partitioner,
                                                   const data::PointSet& ps);

/// The report for points already counted per partition: `sizes` holds one
/// count per partition of the fitted `partitioner`. analyze_partitioning is
/// this applied to its own counts.
[[nodiscard]] PartitionReport report_from_sizes(const Partitioner& partitioner,
                                                std::vector<std::size_t> sizes);

}  // namespace mrsky::part
