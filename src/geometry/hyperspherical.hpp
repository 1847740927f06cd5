// Hyperspherical coordinate transform — paper Eq. (1) and (2).
//
// For a non-negative Cartesian vector v = (v1, ..., vn):
//   r        = sqrt(v1² + ... + vn²)
//   tan(φk)  = sqrt(vn² + ... + v(k+1)²) / vk        for k = 1 .. n-1
// so each angle lies in [0, π/2] when all coordinates are non-negative
// (the QoS data space is the positive orthant). MR-Angle partitions the
// (n−1)-dimensional angular cube [0, π/2]^(n−1); the radial coordinate r is
// deliberately ignored, which is exactly why each angular sector spans the
// full quality range from near-origin (good) to far (poor) services.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace mrsky::geo {

struct HypersphericalCoords {
  double r = 0.0;
  std::vector<double> phi;  ///< n-1 angles, each in [0, π/2] for v >= 0
};

/// Forward transform (Eq. 1). Requires a non-empty vector with non-negative
/// coordinates (throws otherwise). The all-zero vector maps to r=0, φ=0.
[[nodiscard]] HypersphericalCoords to_hyperspherical(std::span<const double> v);

/// Angles only, written into `phi_out` (resized to v.size()-1). Avoids
/// allocation in the per-point Map loop.
void angles_of(std::span<const double> v, std::vector<double>& phi_out);

/// Throws InvalidArgument unless v is non-empty with non-negative (and so
/// non-NaN) coordinates: the transform's domain.
void require_transform_domain(std::span<const double> v);

/// Eq. (1)'s suffix sums of squares, back to front: calls visit(k, tail) for
/// k = n-1 down to 1, where tail = vn² + ... + v(k+1)² and tan(φk) =
/// sqrt(tail) / vk (0-based v[k - 1]). Does not validate v. angles_of and
/// the MR-Angle sector lookup both accumulate through here, so the lookup's
/// tangent numerator has the same bits that angles_of feeds to atan2.
template <typename Visit>
void for_each_suffix_square_sum(std::span<const double> v, Visit&& visit) {
  double tail = 0.0;
  for (std::size_t k = v.size(); k-- > 1;) {
    tail += v[k] * v[k];
    visit(k, tail);
  }
}

/// Inverse transform; reconstructs the Cartesian vector of dimension
/// coords.phi.size() + 1. Used by tests to prove round-tripping.
[[nodiscard]] std::vector<double> to_cartesian(const HypersphericalCoords& coords);

}  // namespace mrsky::geo
