#include "src/qos/selector.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "src/common/error.hpp"
#include "src/skyline/algorithms.hpp"

namespace mrsky::qos {

QosConstraints::QosConstraints(std::size_t dim)
    : min_(dim, std::numeric_limits<double>::quiet_NaN()),
      max_(dim, std::numeric_limits<double>::quiet_NaN()) {
  MRSKY_REQUIRE(dim >= 1, "constraints need at least one attribute");
}

QosConstraints& QosConstraints::at_least(std::size_t attribute, double value) {
  MRSKY_REQUIRE(attribute < min_.size(), "attribute out of range");
  min_[attribute] = value;
  return *this;
}

QosConstraints& QosConstraints::at_most(std::size_t attribute, double value) {
  MRSKY_REQUIRE(attribute < max_.size(), "attribute out of range");
  max_[attribute] = value;
  return *this;
}

bool QosConstraints::admits(std::span<const double> natural_qos) const {
  MRSKY_REQUIRE(natural_qos.size() == min_.size(), "constraint dimension mismatch");
  for (std::size_t a = 0; a < min_.size(); ++a) {
    if (!std::isnan(min_[a]) && natural_qos[a] < min_[a]) return false;
    if (!std::isnan(max_[a]) && natural_qos[a] > max_[a]) return false;
  }
  return true;
}

SkylineServiceSelector::SkylineServiceSelector(ServiceCatalog catalog,
                                               core::MRSkylineConfig config)
    : catalog_(std::move(catalog)), config_(config) {}

const std::vector<WebService>& SkylineServiceSelector::skyline() {
  if (!computed_) full_recompute();
  return skyline_services_;
}

void SkylineServiceSelector::full_recompute() {
  MRSKY_REQUIRE(catalog_.size() > 0, "cannot select from an empty catalog");
  last_run_ = core::run_mr_skyline(catalog_.to_oriented_points(), config_);
  maintained_.reset();
  refresh_service_view(last_run_.skyline);
  computed_ = true;
}

skyline::MaintainedSkyline& SkylineServiceSelector::maintained() {
  if (!computed_) full_recompute();
  if (!maintained_) {
    maintained_.emplace(catalog_.to_oriented_points(), last_run_.skyline.ids());
    load_tests_ = maintained_->stats().dominance_tests;
  }
  return *maintained_;
}

void SkylineServiceSelector::refresh_service_view(const data::PointSet& global) {
  skyline_services_.clear();
  skyline_services_.reserve(global.size());
  for (data::PointId id : global.ids()) {
    auto service = catalog_.find(id);
    MRSKY_ASSERT(service.has_value(), "skyline id missing from catalog");
    if (service) skyline_services_.push_back(std::move(*service));
  }
}

bool SkylineServiceSelector::add_service(std::string name, std::vector<double> qos) {
  skyline::MaintainedSkyline& sky = maintained();
  const data::PointId id = catalog_.add(std::move(name), std::move(qos));
  const bool entered = sky.insert(catalog_.oriented_qos(catalog_.services().back()), id);
  if (entered) refresh_service_view(sky.skyline_points());
  return entered;
}

std::vector<WebService> SkylineServiceSelector::skyline_within(
    const QosConstraints& constraints) const {
  MRSKY_REQUIRE(constraints.dim() == catalog_.schema().size(),
                "constraints must cover every schema attribute");
  data::PointSet admitted(catalog_.schema().size());
  for (const auto& service : catalog_.services()) {
    if (constraints.admits(service.qos)) {
      admitted.push_back(catalog_.oriented_qos(service), service.id);
    }
  }
  std::vector<WebService> out;
  if (admitted.empty()) return out;
  const data::PointSet sky = skyline::bnl_skyline(admitted);
  out.reserve(sky.size());
  for (data::PointId id : sky.ids()) {
    auto service = catalog_.find(id);
    if (service) out.push_back(std::move(*service));
  }
  return out;
}

bool SkylineServiceSelector::remove_service(data::PointId id) {
  skyline::MaintainedSkyline& sky = maintained();
  if (!catalog_.remove(id)) return false;
  if (sky.erase(id).was_skyline) refresh_service_view(sky.skyline_points());
  return true;
}

const core::MRSkylineResult& SkylineServiceSelector::last_run() const { return last_run_; }

}  // namespace mrsky::qos
