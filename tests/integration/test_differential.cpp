// Randomised differential testing: every skyline implementation in the
// library — four scan algorithms, the bounded-window BNL, the BBS index
// traversal, and the MapReduce pipeline under every partitioning scheme —
// must agree on randomly drawn workloads (size, dimension, distribution and
// duplicate injection all derived from the seed).
#include <gtest/gtest.h>

#include <string>

#include "src/common/rng.hpp"
#include "src/core/mr_skyline.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/transforms.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/bnl_bounded.hpp"
#include "src/skyline/verify.hpp"
#include "src/spatial/bbs.hpp"

namespace mrsky {
namespace {

struct Workload {
  data::PointSet points{1};
  std::string description;
};

Workload make_workload(std::uint64_t seed) {
  common::Rng rng(seed * 7919 + 13);
  const std::size_t n = 50 + rng.uniform_index(750);
  const std::size_t dim = 1 + rng.uniform_index(8);
  const auto dist = static_cast<data::Distribution>(rng.uniform_index(4));
  Workload w;
  w.points = data::generate(dist, n, dim, seed);
  if (rng.uniform() < 0.5 && !w.points.empty()) {
    const std::size_t copies = 1 + rng.uniform_index(n / 4 + 1);
    w.points = data::with_duplicates(w.points, copies, rng);
  }
  w.description = data::to_string(dist) + " n=" + std::to_string(w.points.size()) +
                  " d=" + std::to_string(dim);
  return w;
}

class Differential : public testing::TestWithParam<std::uint64_t> {};

TEST_P(Differential, AllImplementationsAgree) {
  const Workload w = make_workload(GetParam());
  const auto reference = sorted_ids(skyline::naive_skyline(w.points));

  auto expect_same = [&](const data::PointSet& sky, const std::string& what) {
    EXPECT_EQ(sorted_ids(sky), reference) << what << " on " << w.description;
  };

  expect_same(skyline::bnl_skyline(w.points), "bnl");
  expect_same(skyline::sfs_skyline(w.points), "sfs");
  expect_same(skyline::dc_skyline(w.points), "dc");
  expect_same(skyline::bnl_skyline_bounded(w.points, 3), "bnl-bounded-w3");
  expect_same(skyline::bnl_skyline_bounded(w.points, 64), "bnl-bounded-w64");
  expect_same(spatial::bbs_skyline(w.points), "bbs");
}

TEST_P(Differential, PipelineAgreesUnderEveryScheme) {
  const Workload w = make_workload(GetParam() + 1000);
  const auto reference = sorted_ids(skyline::naive_skyline(w.points));
  for (part::Scheme scheme : {part::Scheme::kDimensional, part::Scheme::kGrid,
                              part::Scheme::kAngular, part::Scheme::kAngularEquiDepth,
                              part::Scheme::kAngularRadial, part::Scheme::kPivot,
                              part::Scheme::kRandom}) {
    core::MRSkylineConfig config;
    config.scheme = scheme;
    config.servers = 1 + GetParam() % 6;
    config.merge_fan_in = (GetParam() % 3 == 0) ? 0 : 2 + GetParam() % 3;
    config.use_combiner = (GetParam() % 2 == 1);
    config.salt_oversized_partitions = (GetParam() % 5 < 2);
    const auto result = core::run_mr_skyline(w.points, config);
    EXPECT_EQ(sorted_ids(result.skyline), reference)
        << part::to_string(scheme) << " on " << w.description;
  }
}

TEST_P(Differential, VerifierAcceptsReferenceOutput) {
  const Workload w = make_workload(GetParam() + 2000);
  const auto sky = skyline::bnl_skyline(w.points);
  const auto verdict = skyline::verify_skyline(w.points, sky);
  EXPECT_TRUE(verdict.ok) << verdict.message << " on " << w.description;
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         testing::Range<std::uint64_t>(1, 13),
                         [](const auto& param_info) {
                           std::string name = "seed";
                           name += std::to_string(param_info.param);
                           return name;
                         });

}  // namespace
}  // namespace mrsky
