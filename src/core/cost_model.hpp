// Calibrated per-work-unit cost model for the adaptive partition planner.
//
// The cluster simulator (mr::ClusterModel) prices *simulated 2012 Hadoop*
// seconds; this model prices *this process's* execution — what a resident
// QueryEngine caller actually waits for. The planner multiplies predicted
// work (dominance tests, partition assignments, shuffled records) by these
// constants to rank candidate plans, so what matters is that the ratios are
// right for the running binary, not that any absolute second is exact:
//
//  * `CostModel::process()` calibrates once per process with a microbenchmark
//    probe (a timed BNL skyline for the dominance-test rate, a timed assign
//    loop for the map rate, and records built, bucketed and copied out the
//    way the pipeline does for the shuffle rate), because the constants
//    depend on the kernel path the CPU dispatches (portable or AVX2) and
//    differ by an order of magnitude in sanitizer builds;
//  * every observed pipeline run can then refine the dominance-test constant
//    through `observe_run` (EWMA over wall / work), so a long-lived server
//    converges onto its real rate under whatever load surrounds it;
//  * tests and reproducible experiments construct a CostModel from explicit
//    `CostConstants` instead — same arithmetic, no machine dependence.
#pragma once

#include <cstdint>
#include <mutex>

namespace mrsky::core {

/// Per-unit in-process execution costs, all in seconds.
struct CostConstants {
  /// One dominance test inside the BNL/SFS/D&C kernels (the dominant term of
  /// both the local-skyline and the merge phases).
  double seconds_per_dominance_test = 4e-9;
  /// One partition assignment per attribute: the map side's coordinate
  /// transform + sector lookup is O(d) per point for every scheme.
  double seconds_per_assign_dim = 2e-9;
  /// One record crossing the shuffle (PointRec materialisation + bucket
  /// insert), charged per point entering a job.
  double seconds_per_shuffle_record = 1.2e-7;
  /// Fixed in-process overhead per MapReduce round (job setup, task spawn,
  /// output collection) — what keeps deep merge trees from looking free.
  double seconds_per_job = 2e-4;
};

/// Thread-safe holder of CostConstants with probe calibration and EWMA
/// refinement from observed runs. Copyable reads (constants()), serialised
/// writes (observe_run).
class CostModel {
 public:
  /// Library defaults (the values above) — deterministic, no probe.
  CostModel() = default;
  /// Fixed constants — deterministic, no probe (tests, recorded experiments).
  explicit CostModel(const CostConstants& constants) : constants_(constants) {}

  /// A consistent copy of the current constants.
  [[nodiscard]] CostConstants constants() const;

  /// Folds one completed pipeline run into the dominance-test rate:
  /// `wall_seconds` across `work_units` dominance tests and `shuffle_records`
  /// shuffled records. Robust to outliers (the implied rate is clamped to
  /// [1/8x, 8x] of the current one before the EWMA step); runs with too few
  /// work units to carry signal are ignored.
  void observe_run(std::uint64_t work_units, std::uint64_t shuffle_records,
                   double wall_seconds);

  /// Number of observe_run calls that actually updated the model.
  [[nodiscard]] std::uint64_t observations() const;

  /// The process-wide model: probe-calibrated on first use, refined by every
  /// observed `scheme=auto` pipeline run. Ratios reflect this process (the
  /// kernel path the CPU dispatches, and sanitizer builds, move them by up to
  /// an order of magnitude).
  [[nodiscard]] static CostModel& process();

  /// Runs the calibration microbenchmark (~1 ms) and returns the measured
  /// constants. Exposed for tests and the `mrsky plan` --calibrate output.
  [[nodiscard]] static CostConstants calibrate_by_probe();

 private:
  mutable std::mutex mutex_;
  CostConstants constants_;
  std::uint64_t observations_ = 0;
};

/// Growth factor of the expected skyline size when a partition measured at
/// `sample_n` points scales to `full_n` points, under the independent-data
/// law (skyline::approx_skyline_size) — an upper-ish bound used to
/// extrapolate sample-measured local-skyline sizes; see estimate.hpp for why
/// the independence assumption is acceptable for *ranking* candidates.
/// Returns 1.0 when either count is < 2; always >= 1 when full_n >= sample_n.
[[nodiscard]] double skyline_growth_factor(std::size_t sample_n, std::size_t full_n,
                                           std::size_t dim);

}  // namespace mrsky::core
