// Skyline cardinality estimation.
//
// For n points with independent, continuously-distributed attributes the
// expected skyline size is the number of d-dimensional Pareto records:
//
//   E[|SKY|] = H(n, d) ≈ (ln n)^(d-1) / (d-1)!      (Bentley et al. 1978;
//                                                    exact via recurrence)
//
// The paper's complexity worry (§I: "exponential growth of the skyline
// complexity") is exactly this quantity's growth in d. core::plan_config
// uses it to predict merge-stage input sizes; the distribution ablation shows how
// far real workloads (correlated / anticorrelated) sit from the independence
// assumption.
//
// The independence assumption matters for how callers should read the
// numbers: correlated attributes shrink the skyline (often dramatically)
// while anticorrelated ones inflate it, but in the regimes this codebase
// targets — service-selection data where QoS attributes trade off mildly —
// H(n, d) behaves as a loose upper-ish bound.
#pragma once

#include <cstddef>

namespace mrsky::skyline {

/// Exact expected skyline size for independent continuous attributes, via
/// the harmonic recurrence
///
///   H(n, 1) = 1 for n >= 1,   H(0, d) = 0,
///   H(n, d) = H(n-1, d) + H(n, d-1) / n,
///
/// i.e. point n is a d-dimensional record iff it is a (d-1)-dimensional
/// record among the points tied for last place in the remaining dimension —
/// probability H(n, d-1)/n under independence. O(n·d) time, O(n) space
/// (one level of the recurrence kept in place). Requires d >= 1.
[[nodiscard]] double expected_skyline_size(std::size_t n, std::size_t dim);

}  // namespace mrsky::skyline
