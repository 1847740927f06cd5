#include "src/partition/factory.hpp"

#include "src/common/error.hpp"
#include "src/partition/angular.hpp"
#include "src/partition/angular_radial.hpp"
#include "src/partition/dimensional.hpp"
#include "src/partition/grid.hpp"
#include "src/partition/pivot.hpp"
#include "src/partition/random.hpp"

namespace mrsky::part {

Scheme parse_scheme(const std::string& name) {
  if (name == "dimensional" || name == "dim" || name == "mr-dim") return Scheme::kDimensional;
  if (name == "grid" || name == "mr-grid") return Scheme::kGrid;
  if (name == "angular" || name == "angle" || name == "mr-angle") return Scheme::kAngular;
  if (name == "angular-equidepth" || name == "equidepth") return Scheme::kAngularEquiDepth;
  if (name == "angular-radial" || name == "radial") return Scheme::kAngularRadial;
  if (name == "pivot" || name == "voronoi") return Scheme::kPivot;
  if (name == "random" || name == "hash") return Scheme::kRandom;
  MRSKY_FAIL("unknown partitioning scheme: " + name);
}

std::string to_string(Scheme scheme) {
  switch (scheme) {
    case Scheme::kDimensional: return "dimensional";
    case Scheme::kGrid: return "grid";
    case Scheme::kAngular: return "angular";
    case Scheme::kAngularEquiDepth: return "angular-equidepth";
    case Scheme::kAngularRadial: return "angular-radial";
    case Scheme::kPivot: return "pivot";
    case Scheme::kRandom: return "random";
  }
  return "unknown";
}

PartitionerPtr make_partitioner(Scheme scheme, const PartitionerOptions& options) {
  switch (scheme) {
    case Scheme::kDimensional:
      return std::make_unique<DimensionalPartitioner>(options.num_partitions, options.split_dim);
    case Scheme::kGrid:
      return std::make_unique<GridPartitioner>(options.num_partitions);
    case Scheme::kAngular:
      return std::make_unique<AngularPartitioner>(options.num_partitions,
                                                  AngularPolicy::kEqualWidth);
    case Scheme::kAngularEquiDepth:
      return std::make_unique<AngularPartitioner>(options.num_partitions,
                                                  AngularPolicy::kEquiDepth);
    case Scheme::kAngularRadial:
      return std::make_unique<AngularRadialPartitioner>(options.num_partitions,
                                                        options.radial_bands);
    case Scheme::kPivot:
      return std::make_unique<PivotPartitioner>(options.num_partitions, options.seed);
    case Scheme::kRandom:
      return std::make_unique<RandomPartitioner>(options.num_partitions, options.seed);
  }
  MRSKY_FAIL("unreachable scheme");
}

}  // namespace mrsky::part
