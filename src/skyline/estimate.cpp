#include "src/skyline/estimate.hpp"

#include <vector>

#include "src/common/error.hpp"

namespace mrsky::skyline {

double expected_skyline_size(std::size_t n, std::size_t dim) {
  MRSKY_REQUIRE(dim >= 1, "dimension must be >= 1");
  if (n == 0) return 0.0;
  if (dim == 1) return 1.0;
  // V(k, 1) = 1; V(k, d) = V(k-1, d) + V(k, d-1) / k. Computed level by
  // level in place: after processing level d, v[k] = V(k, d).
  std::vector<double> v(n + 1, 1.0);
  v[0] = 0.0;
  for (std::size_t level = 2; level <= dim; ++level) {
    double running = 0.0;
    for (std::size_t k = 1; k <= n; ++k) {
      running += v[k] / static_cast<double>(k);
      v[k] = running;
    }
  }
  return v[n];
}

}  // namespace mrsky::skyline
