#include "src/skyline/extensions.hpp"

#include <algorithm>
#include <numeric>

#include "src/common/error.hpp"
#include "src/skyline/algorithms.hpp"

namespace mrsky::skyline {

data::PointSet k_skyband(const data::PointSet& ps, std::size_t k, SkylineStats* stats) {
  MRSKY_REQUIRE(k >= 1, "k-skyband requires k >= 1");
  SkylineStats local;
  SkylineStats& s = stats != nullptr ? *stats : local;
  s.points_in += ps.size();

  std::vector<std::size_t> survivors;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    std::size_t dominators = 0;
    for (std::size_t j = 0; j < ps.size() && dominators < k; ++j) {
      if (i == j) continue;
      ++s.dominance_tests;
      if (dominates(ps.point(j), ps.point(i))) ++dominators;
    }
    if (dominators < k) survivors.push_back(i);
  }
  s.points_out += survivors.size();
  return ps.select(survivors);
}

RepresentativeResult representative_skyline(const data::PointSet& ps, std::size_t k) {
  MRSKY_REQUIRE(k >= 1, "need at least one representative");
  RepresentativeResult result;
  result.representatives = data::PointSet(ps.dim());
  if (ps.empty()) return result;

  const data::PointSet sky = bnl_skyline(ps);

  // coverage[s] = dataset points dominated by skyline point s and not yet
  // covered by an earlier pick. Greedy max-coverage.
  std::vector<bool> covered(ps.size(), false);
  std::vector<bool> used(sky.size(), false);
  for (std::size_t round = 0; round < k && round < sky.size(); ++round) {
    std::size_t best = sky.size();
    std::size_t best_gain = 0;
    for (std::size_t s = 0; s < sky.size(); ++s) {
      if (used[s]) continue;
      std::size_t gain = 0;
      for (std::size_t i = 0; i < ps.size(); ++i) {
        if (!covered[i] && dominates(sky.point(s), ps.point(i))) ++gain;
      }
      // Strict > keeps the earliest (lowest-id after BNL's sort) on ties, so
      // selection is deterministic.
      if (best == sky.size() || gain > best_gain) {
        best = s;
        best_gain = gain;
      }
    }
    used[best] = true;
    result.representatives.push_back(sky.point(best), sky.id(best));
    result.coverage.push_back(best_gain);
    result.total_covered += best_gain;
    for (std::size_t i = 0; i < ps.size(); ++i) {
      if (!covered[i] && dominates(sky.point(best), ps.point(i))) covered[i] = true;
    }
  }
  return result;
}

std::vector<ScoredPoint> top_k_of_skyline(const data::PointSet& skyline,
                                          std::span<const double> weights, std::size_t k) {
  MRSKY_REQUIRE(weights.size() == skyline.dim(), "one weight per attribute required");
  for (double w : weights) MRSKY_REQUIRE(w >= 0.0, "weights must be non-negative");

  std::vector<ScoredPoint> scored;
  scored.reserve(skyline.size());
  for (std::size_t i = 0; i < skyline.size(); ++i) {
    double score = 0.0;
    const auto p = skyline.point(i);
    for (std::size_t a = 0; a < p.size(); ++a) score += weights[a] * p[a];
    scored.push_back({skyline.id(i), score});
  }
  // (score, id) is a total order on distinct ids, so the ranking does not
  // depend on the order the skyline's rows arrive in.
  std::sort(scored.begin(), scored.end(), [](const ScoredPoint& a, const ScoredPoint& b) {
    if (a.score != b.score) return a.score < b.score;
    return a.id < b.id;
  });
  if (scored.size() > k) scored.resize(k);
  return scored;
}

std::vector<ScoredPoint> top_k_weighted(const data::PointSet& ps,
                                        std::span<const double> weights, std::size_t k) {
  return top_k_of_skyline(bnl_skyline(ps), weights, k);
}

data::PointSet epsilon_pareto_cover(const data::PointSet& ps, double epsilon) {
  MRSKY_REQUIRE(epsilon >= 0.0, "epsilon must be non-negative");
  for (std::size_t i = 0; i < ps.size(); ++i) {
    for (double v : ps.point(i)) {
      MRSKY_REQUIRE(v >= 0.0, "epsilon cover requires non-negative coordinates");
    }
  }
  const data::PointSet sky = bnl_skyline(ps);
  if (sky.empty()) return sky;

  auto eps_dominates = [epsilon](std::span<const double> s, std::span<const double> p) {
    for (std::size_t a = 0; a < s.size(); ++a) {
      if (s[a] > (1.0 + epsilon) * p[a]) return false;
    }
    return true;
  };

  // Greedy sweep in ascending coordinate-sum order: a point already
  // ε-covered by a selected one is skipped; otherwise it is selected (it
  // must cover itself). Selected points cover every dataset point because
  // each dataset point's dominator on the skyline is either selected or
  // ε-covered by a selected point s, and ε-cover composes with dominance
  // (s <= (1+ε)·q and q <= p gives s <= (1+ε)·p).
  std::vector<std::size_t> order(sky.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto pa = sky.point(a);
    const auto pb = sky.point(b);
    const double sa = std::accumulate(pa.begin(), pa.end(), 0.0);
    const double sb = std::accumulate(pb.begin(), pb.end(), 0.0);
    if (sa != sb) return sa < sb;
    return a < b;
  });

  std::vector<std::size_t> selected;
  for (std::size_t i : order) {
    bool covered = false;
    for (std::size_t s : selected) {
      if (eps_dominates(sky.point(s), sky.point(i))) {
        covered = true;
        break;
      }
    }
    if (!covered) selected.push_back(i);
  }
  std::sort(selected.begin(), selected.end());
  return sky.select(selected);
}

}  // namespace mrsky::skyline
