#include "src/geometry/hyperspherical.hpp"

#include <cmath>

#include "src/common/error.hpp"

namespace mrsky::geo {

void require_transform_domain(std::span<const double> v) {
  MRSKY_REQUIRE(!v.empty(), "hyperspherical transform needs at least one coordinate");
  for (double x : v) {
    MRSKY_REQUIRE(x >= 0.0, "hyperspherical transform requires non-negative coordinates");
  }
}

void angles_of(std::span<const double> v, std::vector<double>& phi_out) {
  require_transform_domain(v);
  phi_out.resize(v.size() - 1);
  for_each_suffix_square_sum(v, [&](std::size_t k, double tail) {
    // atan2 handles vk == 0 (angle π/2) and tail == 0 (angle 0); the all-zero
    // prefix case atan2(0, 0) yields 0, a stable convention for duplicates
    // of the origin.
    phi_out[k - 1] = std::atan2(std::sqrt(tail), v[k - 1]);
  });
}

HypersphericalCoords to_hyperspherical(std::span<const double> v) {
  require_transform_domain(v);
  HypersphericalCoords out;
  double sum_sq = 0.0;
  for (double x : v) sum_sq += x * x;
  out.r = std::sqrt(sum_sq);
  angles_of(v, out.phi);
  return out;
}

std::vector<double> to_cartesian(const HypersphericalCoords& coords) {
  const std::size_t n = coords.phi.size() + 1;
  std::vector<double> v(n);
  // v1 = r cos φ1; vk = r sin φ1 ... sin φ(k-1) cos φk; vn = r sin φ1 ... sin φ(n-1).
  double sines = coords.r;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    v[k] = sines * std::cos(coords.phi[k]);
    sines *= std::sin(coords.phi[k]);
  }
  v[n - 1] = sines;
  return v;
}

}  // namespace mrsky::geo
