#include "src/partition/stats.hpp"

#include <algorithm>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/stats.hpp"

namespace mrsky::part {

PartitionReport analyze_partitioning(const Partitioner& partitioner, const data::PointSet& ps) {
  std::vector<std::size_t> sizes(partitioner.num_partitions(), 0);
  for (std::size_t i = 0; i < ps.size(); ++i) sizes[partitioner.assign(ps.point(i))] += 1;
  return report_from_sizes(partitioner, std::move(sizes));
}

PartitionReport report_from_sizes(const Partitioner& partitioner,
                                  std::vector<std::size_t> sizes) {
  MRSKY_REQUIRE(sizes.size() == partitioner.num_partitions(),
                "need one size per partition of the partitioner");
  PartitionReport report;
  report.sizes = std::move(sizes);
  std::vector<double> sizes_d;
  sizes_d.reserve(report.sizes.size());
  for (std::size_t s : report.sizes) {
    if (s > 0) report.non_empty += 1;
    report.largest = std::max(report.largest, s);
    sizes_d.push_back(static_cast<double>(s));
  }
  report.balance_cv = common::coefficient_of_variation(sizes_d);
  report.prunable = partitioner.prunable_partitions();
  for (std::size_t p : report.prunable) report.pruned_points += report.sizes[p];
  return report;
}

}  // namespace mrsky::part
