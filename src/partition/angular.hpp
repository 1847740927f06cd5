// MR-Angle partitioning (paper §III-C, Algorithm 1) — the paper's
// contribution.
//
// Each point is transformed to hyperspherical coordinates (Eq. 1); the
// (n−1)-dimensional angular cube is split into exactly `num_partitions`
// sectors by a balanced mixed-radix grid over the angles, and the radial
// coordinate is ignored. A sector is a cone from the origin, so it contains
// services of every quality level: each partition's local skyline hugs the
// global skyline contour, which is why the Reduce-stage merge input shrinks
// relative to MR-Dim / MR-Grid.
//
// Two split policies:
//  * kEqualWidth — angles split uniformly over [0, π/2] (the paper's method);
//  * kEquiDepth  — per-angle split boundaries placed at sample quantiles of
//    the fitted data, for better load balance on skewed data (our ablation).
//
// Sector lookup stays in tangent space: tan(φk) = s / vk, with s the suffix
// norm of Eq. (1). `fit` brackets each boundary β with [tan(β − δ),
// tan(β + δ)], δ = 2^-40 rad, and `assign` compares the ratio against the
// brackets. A ratio outside a bracket puts the true angle more than δ from β,
// far beyond the rounding of the ratio, of tan and of atan2, so the side it
// picks is the side atan2 picks. Only a ratio inside a bracket, a zero vk or
// a NaN ratio pays atan2 and the exact boundary search; angles split into a
// single sector compute nothing. Every point gets bitwise the sector that
// atan2 followed by a search over boundaries() gives.
#pragma once

#include <vector>

#include "src/partition/partitioner.hpp"

namespace mrsky::part {

enum class AngularPolicy { kEqualWidth, kEquiDepth };

class AngularPartitioner final : public Partitioner {
 public:
  AngularPartitioner(std::size_t num_partitions, AngularPolicy policy = AngularPolicy::kEqualWidth);

  void fit(const data::PointSet& ps) override;
  [[nodiscard]] std::size_t assign(std::span<const double> point) const override;
  /// For 1-dimensional data there are no angles; everything maps to one
  /// partition regardless of the requested count.
  [[nodiscard]] std::size_t num_partitions() const noexcept override {
    return effective_partitions_;
  }
  [[nodiscard]] std::string name() const override {
    return policy_ == AngularPolicy::kEqualWidth ? "angular" : "angular-equidepth";
  }

  [[nodiscard]] AngularPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] const std::vector<std::size_t>& shape() const noexcept { return shape_; }

  /// Split boundaries for angle k (shape_[k] - 1 interior boundaries,
  /// ascending). Exposed for tests and diagnostics.
  [[nodiscard]] const std::vector<double>& boundaries(std::size_t angle_index) const;

 private:
  /// tan(β − δ) and tan(β + δ) around one boundary β; ±∞ where β ∓ δ leaves
  /// (0, π/2).
  struct TangentBracket {
    double lo;
    double hi;
  };

  /// The cell of angle k for the point whose tangent is s / x: the number of
  /// boundaries ≤ atan2(s, x).
  [[nodiscard]] std::size_t cell_of(std::size_t k, double s, double x) const;

  std::size_t requested_partitions_;
  std::size_t effective_partitions_;
  AngularPolicy policy_;
  bool fitted_ = false;
  std::vector<std::size_t> shape_;               ///< per-angle split counts
  std::vector<std::vector<double>> boundaries_;  ///< per-angle interior boundaries
  std::vector<std::vector<TangentBracket>> brackets_;  ///< parallel to boundaries_
};

}  // namespace mrsky::part
