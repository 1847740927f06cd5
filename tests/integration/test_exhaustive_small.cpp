// Exhaustive small-case testing: enumerate EVERY 2-D dataset with up to four
// points and coordinates in {0, 1, 2}, and check that all four scan
// algorithms, the bounded BNL and the BBS index traversal agree with a
// first-principles dominance check. Randomised suites sample the space;
// this one covers a small corner of it completely — ties, duplicates and
// degenerate layouts included, which is where skyline bugs live.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/dataset/point_set.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/bnl_bounded.hpp"
#include "src/skyline/verify.hpp"
#include "src/spatial/bbs.hpp"

namespace mrsky {
namespace {

/// First-principles reference: id list of undominated points.
std::vector<data::PointId> reference_skyline(const data::PointSet& ps) {
  std::vector<data::PointId> out;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < ps.size() && !dominated; ++j) {
      if (i != j && skyline::dominates(ps.point(j), ps.point(i))) dominated = true;
    }
    if (!dominated) out.push_back(ps.id(i));
  }
  return out;
}

/// Decodes dataset index `code` into n points over the 3x3 coordinate grid.
data::PointSet decode(std::size_t code, std::size_t n) {
  data::PointSet ps(2);
  for (std::size_t i = 0; i < n; ++i) {
    const auto cell = code % 9;
    code /= 9;
    ps.push_back(std::vector<double>{static_cast<double>(cell % 3),
                                     static_cast<double>(cell / 3)});
  }
  return ps;
}

class ExhaustiveSmall : public testing::TestWithParam<std::size_t /*n*/> {};

TEST_P(ExhaustiveSmall, AllAlgorithmsMatchReference) {
  const std::size_t n = GetParam();
  std::size_t total = 1;
  for (std::size_t i = 0; i < n; ++i) total *= 9;

  for (std::size_t code = 0; code < total; ++code) {
    const data::PointSet ps = decode(code, n);
    const auto expected = reference_skyline(ps);

    auto check = [&](const data::PointSet& sky, const char* what) {
      ASSERT_EQ(sorted_ids(sky), expected) << what << " on dataset code " << code;
    };
    check(skyline::bnl_skyline(ps), "bnl");
    check(skyline::sfs_skyline(ps), "sfs");
    check(skyline::dc_skyline(ps), "dc");
    check(skyline::bnl_skyline_bounded(ps, 1), "bnl-bounded-w1");
    check(skyline::bnl_skyline_bounded(ps, 2), "bnl-bounded-w2");
    check(spatial::bbs_skyline(ps), "bbs");
  }
}

INSTANTIATE_TEST_SUITE_P(UpToFourPoints, ExhaustiveSmall,
                         testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{3},
                                         std::size_t{4}),
                         [](const auto& param_info) {
                           std::string name = "n";
                           name += std::to_string(param_info.param);
                           return name;
                         });

}  // namespace
}  // namespace mrsky
