// Construction of partitioners by scheme name — the single place benches,
// examples and the MRSkyline driver translate configuration into objects.
#pragma once

#include <string>

#include "src/partition/partitioner.hpp"

namespace mrsky::part {

enum class Scheme {
  kDimensional,       ///< MR-Dim (§III-A)
  kGrid,              ///< MR-Grid (§III-B)
  kAngular,           ///< MR-Angle, equal-width angular grid (§III-C)
  kAngularEquiDepth,  ///< MR-Angle with quantile sector boundaries (extension)
  kAngularRadial,     ///< sectors × radius bands (extension)
  kPivot,             ///< nearest-pivot Voronoi cells (extension)
  kRandom,            ///< hash partitioning baseline (extension)
};

[[nodiscard]] Scheme parse_scheme(const std::string& name);
[[nodiscard]] std::string to_string(Scheme scheme);

struct PartitionerOptions {
  std::size_t num_partitions = 8;
  /// MR-Dim only: which attribute carries the slabs.
  std::size_t split_dim = 0;
  /// Random only: hash salt.
  std::uint64_t seed = 0x5eed;
  /// Angular-radial only: radius bands per sector (must divide num_partitions).
  std::size_t radial_bands = 2;
};

[[nodiscard]] PartitionerPtr make_partitioner(Scheme scheme, const PartitionerOptions& options);

}  // namespace mrsky::part
