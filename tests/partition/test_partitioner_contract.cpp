// The Partitioner interface contract, enforced across every scheme via one
// parameterised suite: any implementation registered in the factory must
// honour these properties, or the MapReduce pipeline built on top of it
// silently mis-routes points.
#include <gtest/gtest.h>

#include <unordered_map>

#include "src/common/error.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/qws.hpp"
#include "src/dataset/normalize.hpp"
#include "src/partition/factory.hpp"
#include "src/partition/stats.hpp"

namespace mrsky::part {
namespace {

using data::PointSet;

class PartitionerContract : public testing::TestWithParam<Scheme> {
 protected:
  static PartitionerPtr make(std::size_t partitions) {
    PartitionerOptions options;
    options.num_partitions = partitions;
    options.radial_bands = 2;
    return make_partitioner(GetParam(), options);
  }

  static PointSet fixture(std::size_t n = 600, std::size_t dim = 4, std::uint64_t seed = 0xC0) {
    return data::generate(data::Distribution::kIndependent, n, dim, seed);
  }
};

TEST_P(PartitionerContract, AssignBeforeFitThrows) {
  auto p = make(8);
  const std::vector<double> point = {0.1, 0.2, 0.3, 0.4};
  EXPECT_THROW((void)p->assign(point), mrsky::RuntimeError);
}

TEST_P(PartitionerContract, FitOnEmptyDatasetThrows) {
  auto p = make(8);
  EXPECT_THROW(p->fit(PointSet(4)), mrsky::InvalidArgument);
}

TEST_P(PartitionerContract, EveryAssignmentInRange) {
  auto p = make(8);
  const PointSet ps = fixture();
  p->fit(ps);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_LT(p->assign(ps.point(i)), p->num_partitions());
  }
}

TEST_P(PartitionerContract, AssignIsPureAfterFit) {
  auto p = make(8);
  const PointSet ps = fixture();
  p->fit(ps);
  for (std::size_t i = 0; i < 50; ++i) {
    const std::size_t first = p->assign(ps.point(i));
    for (int repeat = 0; repeat < 3; ++repeat) EXPECT_EQ(p->assign(ps.point(i)), first);
  }
}

TEST_P(PartitionerContract, RefitIsDeterministic) {
  const PointSet ps = fixture();
  auto a = make(8);
  auto b = make(8);
  a->fit(ps);
  b->fit(ps);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    EXPECT_EQ(a->assign(ps.point(i)), b->assign(ps.point(i)));
  }
}

TEST_P(PartitionerContract, DuplicatePointsCollocate) {
  auto p = make(8);
  PointSet ps = fixture();
  p->fit(ps);
  for (std::size_t i = 0; i < 20; ++i) {
    const std::vector<double> copy(ps.point(i).begin(), ps.point(i).end());
    EXPECT_EQ(p->assign(copy), p->assign(ps.point(i)));
  }
}

TEST_P(PartitionerContract, SinglePartitionDegenerates) {
  // Every scheme must accept a partition count of 1 (angular-radial included:
  // 1 partition = 1 sector x 1 band requires radial_bands = 1).
  PartitionerOptions options;
  options.num_partitions = 1;
  options.radial_bands = 1;
  auto p = make_partitioner(GetParam(), options);
  const PointSet ps = fixture(100);
  p->fit(ps);
  for (std::size_t i = 0; i < ps.size(); ++i) EXPECT_EQ(p->assign(ps.point(i)), 0u);
}

TEST_P(PartitionerContract, PrunablePartitionsAreValidIds) {
  auto p = make(12);
  const PointSet ps = fixture();
  p->fit(ps);
  for (std::size_t id : p->prunable_partitions()) EXPECT_LT(id, p->num_partitions());
}

TEST_P(PartitionerContract, AssignAllMatchesPerPointAssign) {
  auto p = make(6);
  const PointSet ps = fixture(200);
  p->fit(ps);
  const auto all = p->assign_all(ps);
  ASSERT_EQ(all.size(), ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) EXPECT_EQ(all[i], p->assign(ps.point(i)));
}

TEST_P(PartitionerContract, WorksOnQwsWorkload) {
  auto p = make(8);
  data::QwsLikeGenerator gen(4, 0xD1);
  const PointSet ps = data::normalize_min_max(gen.generate_oriented(800));
  p->fit(ps);
  const auto report = analyze_partitioning(*p, ps);
  std::size_t total = 0;
  for (std::size_t s : report.sizes) total += s;
  EXPECT_EQ(total, ps.size());
  EXPECT_GE(report.non_empty, 1u);
}

TEST_P(PartitionerContract, NameIsStable) {
  auto a = make(4);
  auto b = make(4);
  EXPECT_EQ(a->name(), b->name());
  EXPECT_FALSE(a->name().empty());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, PartitionerContract,
                         testing::Values(Scheme::kDimensional, Scheme::kGrid, Scheme::kAngular,
                                         Scheme::kAngularEquiDepth, Scheme::kAngularRadial, Scheme::kPivot,
                                         Scheme::kRandom),
                         [](const auto& param_info) {
                           std::string name = to_string(param_info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace mrsky::part
