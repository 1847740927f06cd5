// SkylineServiceSelector — the top-level facade of the library.
//
// Wraps a ServiceCatalog and an MRSkylineConfig into the workflow the paper
// motivates: compute the skyline of all registered services with the
// MapReduce pipeline, and keep it current as services register and withdraw
// without recomputing from scratch (paper §II: "the new service is first
// mapped into a group and added into the local skyline computation"). The
// upkeep runs on the library's one maintenance structure,
// skyline::MaintainedSkyline, over every registered service — the same
// structure the QueryEngine's writes run on.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "src/core/mr_skyline.hpp"
#include "src/qos/catalog.hpp"
#include "src/skyline/maintained.hpp"

namespace mrsky::qos {

/// Hard QoS requirements in natural units: per attribute an optional
/// [min, max] window (NaN = unconstrained). "Response time under 500 ms and
/// availability at least 99 %" is {max[ResponseTime]=500, min[Availability]=99}.
class QosConstraints {
 public:
  /// Unconstrained over `dim` attributes.
  explicit QosConstraints(std::size_t dim);

  QosConstraints& at_least(std::size_t attribute, double value);
  QosConstraints& at_most(std::size_t attribute, double value);

  [[nodiscard]] std::size_t dim() const noexcept { return min_.size(); }
  [[nodiscard]] bool admits(std::span<const double> natural_qos) const;

 private:
  std::vector<double> min_;  ///< NaN = no lower bound
  std::vector<double> max_;  ///< NaN = no upper bound
};

class SkylineServiceSelector {
 public:
  SkylineServiceSelector(ServiceCatalog catalog, core::MRSkylineConfig config = {});

  /// The current global skyline as full service records (natural units).
  /// The first call runs the full MapReduce pipeline; later calls return the
  /// skyline the adds and removes keep current.
  [[nodiscard]] const std::vector<WebService>& skyline();

  /// Registers a new service and updates the skyline incrementally: the
  /// first add or remove after the full run loads every registered service
  /// into a skyline::MaintainedSkyline, and each add is one insert into it —
  /// no pipeline re-run. Returns true iff the new service joined the global
  /// skyline.
  bool add_service(std::string name, std::vector<double> qos);

  /// Constrained selection: the skyline of only those services admitted by
  /// `constraints` (computed fresh per call — the constrained skyline is NOT
  /// a subset of the unconstrained one, because removing a dominator can
  /// promote a previously-dominated service).
  [[nodiscard]] std::vector<WebService> skyline_within(const QosConstraints& constraints) const;

  /// Deregisters a service (provider withdrawal). Removal can resurrect
  /// points the victim used to dominate; the maintained structure re-examines
  /// exactly the victim's exclusive dominees, and the skyline is republished
  /// only when the victim was on it. Returns false when the id is unknown.
  bool remove_service(data::PointId id);

  [[nodiscard]] const ServiceCatalog& catalog() const noexcept { return catalog_; }

  /// Metrics of the last full MapReduce run (empty before the first run).
  [[nodiscard]] const core::MRSkylineResult& last_run() const;

  /// Dominance tests the maintained structure spent on adds and removes
  /// since it was loaded (the load itself is not counted; see
  /// load_dominance_tests()); 0 before the first add or remove after a full
  /// run.
  [[nodiscard]] std::uint64_t incremental_dominance_tests() const noexcept {
    return maintained_ ? maintained_->stats().dominance_tests - load_tests_ : 0;
  }

  /// Dominance tests the maintained structure spent loading every registered
  /// service at the first add or remove after a full run; 0 before it.
  [[nodiscard]] std::uint64_t load_dominance_tests() const noexcept {
    return maintained_ ? load_tests_ : 0;
  }

 private:
  void full_recompute();
  /// Loads maintained_ from every registered service, once per full run,
  /// the run's skyline first.
  skyline::MaintainedSkyline& maintained();
  void refresh_service_view(const data::PointSet& global);

  ServiceCatalog catalog_;
  core::MRSkylineConfig config_;
  std::optional<skyline::MaintainedSkyline> maintained_;
  std::uint64_t load_tests_ = 0;  ///< maintained_'s dominance tests at its load
  std::vector<WebService> skyline_services_;
  core::MRSkylineResult last_run_;
  bool computed_ = false;
};

}  // namespace mrsky::qos
