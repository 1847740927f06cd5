#include "src/dataset/qws.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/error.hpp"

namespace mrsky::data {

std::vector<QwsAttribute> qws_schema(std::size_t dim) {
  MRSKY_REQUIRE(dim >= 1 && dim <= 10, "QWS schema supports 1..10 attributes");
  // Ranges follow the published QWS v2 summary (Al-Masri & Mahmoud 2007);
  // shapes encode the qualitative skew of each measured attribute.
  static const std::vector<QwsAttribute> kAll = {
      {"ResponseTime", "ms", 37.0, 4989.0, MarginalShape::kLongTailLow, false},
      {"Availability", "%", 7.0, 100.0, MarginalShape::kSkewHigh, true},
      {"Throughput", "invokes/s", 0.1, 43.1, MarginalShape::kSkewLow, true},
      {"Successability", "%", 8.0, 100.0, MarginalShape::kSkewHigh, true},
      {"Reliability", "%", 33.0, 89.0, MarginalShape::kSymmetric, true},
      {"Compliance", "%", 33.0, 100.0, MarginalShape::kSymmetric, true},
      {"BestPractices", "%", 5.0, 95.0, MarginalShape::kSymmetric, true},
      {"Latency", "ms", 0.3, 4140.0, MarginalShape::kLongTailLow, false},
      {"Documentation", "%", 1.0, 96.0, MarginalShape::kBroad, true},
      {"Price", "$/1k calls", 0.0, 50.0, MarginalShape::kSkewLow, false},
  };
  return {kAll.begin(), kAll.begin() + static_cast<std::ptrdiff_t>(dim)};
}

QwsLikeGenerator::QwsLikeGenerator(std::size_t dim, std::uint64_t seed)
    : QwsLikeGenerator(dim, seed, Options{}) {}

QwsLikeGenerator::QwsLikeGenerator(std::size_t dim, std::uint64_t seed, Options options)
    : schema_(qws_schema(dim)), rng_(seed), options_(options) {
  MRSKY_REQUIRE(options_.quality_correlation >= 0.0 && options_.quality_correlation < 1.0,
                "quality_correlation must be in [0, 1)");
}

double QwsLikeGenerator::sample_attribute(const QwsAttribute& attr, double quality_z) {
  // Draw a unit-interval value with the attribute's marginal shape, then mix
  // in the latent quality factor and scale to the attribute's natural range.
  const double u = rng_.uniform();
  double t = 0.0;
  switch (attr.shape) {
    case MarginalShape::kLongTailLow: {
      // Lognormal-like: median well below midrange, heavy upper tail.
      const double z = rng_.normal();
      t = std::clamp(std::exp(-1.2 + 0.9 * z) / 4.0, 0.0, 1.0);
      break;
    }
    case MarginalShape::kSkewHigh:
      t = 1.0 - std::pow(u, 2.5);  // mass near 1
      break;
    case MarginalShape::kSkewLow:
      t = std::pow(u, 2.5);  // mass near 0
      break;
    case MarginalShape::kSymmetric:
      t = (u + rng_.uniform() + rng_.uniform()) / 3.0;  // Bates(3): bell-ish
      break;
    case MarginalShape::kBroad:
      t = u;
      break;
  }
  // Latent quality: good services shift toward the "better" end of each
  // attribute (high t for benefit attributes, low t for cost attributes).
  // The shift is a power transform t^gamma rather than an additive bump: it
  // is smooth and keeps values strictly inside the range, so no artificial
  // pile of duplicates forms at the attribute boundaries (a boundary pile of
  // coordinate-identical points would all be mutually undominated and would
  // corrupt skyline sizes).
  const double rho = options_.quality_correlation;
  if (rho > 0.0) {
    const double direction = attr.higher_is_better ? 1.0 : -1.0;
    const double gamma = std::exp(-direction * rho * quality_z);
    t = std::pow(std::clamp(t, 1e-12, 1.0), gamma);
  }
  return attr.min + t * (attr.max - attr.min);
}

PointSet QwsLikeGenerator::generate_raw(std::size_t n) {
  PointSet out(schema_.size());
  out.reserve(n);
  std::vector<double> row(schema_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double quality_z = rng_.normal();
    for (std::size_t a = 0; a < schema_.size(); ++a) {
      row[a] = sample_attribute(schema_[a], quality_z);
    }
    out.push_back(row);
  }
  return out;
}

PointSet QwsLikeGenerator::generate_oriented(std::size_t n) {
  return orient(generate_raw(n), schema_);
}

PointSet QwsLikeGenerator::orient(const PointSet& raw, const std::vector<QwsAttribute>& schema) {
  MRSKY_REQUIRE(raw.dim() == schema.size(), "schema size must match point dimension");
  std::vector<double> values;
  values.reserve(raw.size() * raw.dim());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    for (std::size_t a = 0; a < raw.dim(); ++a) {
      const double v = raw.at(i, a);
      values.push_back(schema[a].higher_is_better ? schema[a].max - v : v);
    }
  }
  return PointSet(raw.dim(), std::move(values),
                  std::vector<PointId>(raw.ids().begin(), raw.ids().end()));
}

BootstrapResampler::BootstrapResampler(data::PointSet seed_data, double jitter)
    : seed_(std::move(seed_data)), jitter_(jitter) {
  MRSKY_REQUIRE(!seed_.empty(), "bootstrap resampling needs seed data");
  MRSKY_REQUIRE(jitter >= 0.0 && jitter < 1.0, "jitter must be in [0, 1)");
  auto [lo, hi] = seed_.attribute_bounds();
  lo_ = std::move(lo);
  hi_ = std::move(hi);
}

PointSet BootstrapResampler::generate(std::size_t n, common::Rng& rng) const {
  PointSet out(seed_.dim());
  out.reserve(n);
  std::vector<double> row(seed_.dim());
  for (std::size_t i = 0; i < n; ++i) {
    const auto source = static_cast<std::size_t>(rng.uniform_index(seed_.size()));
    const auto p = seed_.point(source);
    for (std::size_t a = 0; a < seed_.dim(); ++a) {
      const double scale = 1.0 + rng.uniform(-jitter_, jitter_);
      row[a] = std::clamp(p[a] * scale, lo_[a], hi_[a]);
    }
    out.push_back(row);
  }
  return out;
}

}  // namespace mrsky::data
