#include "src/qos/selector.hpp"

#include <gtest/gtest.h>

#include "src/common/error.hpp"

#include <algorithm>

#include "src/skyline/algorithms.hpp"
#include "src/skyline/verify.hpp"

namespace mrsky::qos {
namespace {

core::MRSkylineConfig small_config() {
  core::MRSkylineConfig config;
  config.scheme = part::Scheme::kAngular;
  config.servers = 2;
  return config;
}

bool skyline_contains(const std::vector<WebService>& skyline, data::PointId id) {
  return std::any_of(skyline.begin(), skyline.end(),
                     [&](const WebService& s) { return s.id == id; });
}

TEST(SkylineServiceSelector, SkylineMatchesSequentialReference) {
  auto catalog = ServiceCatalog::synthetic(800, 4, 21);
  const auto expected = skyline::bnl_skyline(catalog.to_oriented_points());
  SkylineServiceSelector selector(std::move(catalog), small_config());
  const auto& skyline = selector.skyline();
  ASSERT_EQ(skyline.size(), expected.size());
  for (const auto& s : skyline) {
    EXPECT_TRUE(std::find(expected.ids().begin(), expected.ids().end(), s.id) !=
                expected.ids().end());
  }
}

TEST(SkylineServiceSelector, SkylineIsCachedBetweenCalls) {
  SkylineServiceSelector selector(ServiceCatalog::synthetic(200, 3, 5), small_config());
  const auto& first = selector.skyline();
  const auto& second = selector.skyline();
  EXPECT_EQ(&first, &second);
}

TEST(SkylineServiceSelector, AddDominatedServiceRejected) {
  auto catalog = ServiceCatalog(data::qws_schema(2));
  catalog.add(WebService{0u, "excellent", {50.0, 99.5}});
  SkylineServiceSelector selector(std::move(catalog), small_config());
  (void)selector.skyline();
  // Slower AND less available: dominated, must not join.
  EXPECT_FALSE(selector.add_service("poor", {4000.0, 20.0}));
  EXPECT_FALSE(skyline_contains(selector.skyline(), 1u));
}

TEST(SkylineServiceSelector, AddDominatingServiceJoinsAndEvicts) {
  auto catalog = ServiceCatalog(data::qws_schema(2));
  catalog.add(WebService{0u, "mediocre", {3000.0, 50.0}});
  SkylineServiceSelector selector(std::move(catalog), small_config());
  (void)selector.skyline();
  EXPECT_TRUE(selector.add_service("great", {100.0, 99.0}));
  const auto& skyline = selector.skyline();
  EXPECT_TRUE(skyline_contains(skyline, 1u));
  EXPECT_FALSE(skyline_contains(skyline, 0u));  // evicted
}

TEST(SkylineServiceSelector, AddIncomparableServiceCoexists) {
  auto catalog = ServiceCatalog(data::qws_schema(2));
  catalog.add(WebService{0u, "fast-flaky", {50.0, 50.0}});
  SkylineServiceSelector selector(std::move(catalog), small_config());
  (void)selector.skyline();
  EXPECT_TRUE(selector.add_service("slow-available", {3000.0, 99.9}));
  const auto& skyline = selector.skyline();
  EXPECT_TRUE(skyline_contains(skyline, 0u));
  EXPECT_TRUE(skyline_contains(skyline, 1u));
}

TEST(SkylineServiceSelector, IncrementalMatchesFullRecompute) {
  // Stream 50 services into a selector seeded with 300; final skyline must
  // equal a from-scratch computation over all 350.
  auto seed_catalog = ServiceCatalog::synthetic(350, 3, 33);
  const auto& all = seed_catalog.services();

  ServiceCatalog initial(seed_catalog.schema());
  for (std::size_t i = 0; i < 300; ++i) initial.add(all[i]);
  SkylineServiceSelector selector(std::move(initial), small_config());
  (void)selector.skyline();
  for (std::size_t i = 300; i < 350; ++i) {
    (void)selector.add_service(all[i].name, all[i].qos);
  }

  const auto expected = skyline::bnl_skyline(seed_catalog.to_oriented_points());
  std::vector<data::PointId> got;
  for (const auto& s : selector.skyline()) got.push_back(s.id);
  std::sort(got.begin(), got.end());
  std::vector<data::PointId> want(expected.ids().begin(), expected.ids().end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(SkylineServiceSelector, IncrementalIsCheaperThanRecompute) {
  SkylineServiceSelector selector(ServiceCatalog::synthetic(2000, 4, 9), small_config());
  (void)selector.skyline();
  const auto full_tests =
      selector.last_run().partition_job.total_work_units() +
      selector.last_run().merge_job().total_work_units();
  (void)selector.add_service("newcomer", {500.0, 90.0, 10.0, 80.0});
  EXPECT_LT(selector.incremental_dominance_tests(), full_tests);
}

TEST(SkylineServiceSelector, LoadTestsAreCountedApartFromEachWrite) {
  SkylineServiceSelector selector(ServiceCatalog::synthetic(2000, 4, 9), small_config());
  (void)selector.skyline();
  EXPECT_EQ(selector.load_dominance_tests(), 0u);
  (void)selector.add_service("first", {500.0, 90.0, 10.0, 80.0});
  const std::uint64_t load = selector.load_dominance_tests();
  const std::uint64_t first = selector.incremental_dominance_tests();
  EXPECT_GT(load, first);  // the load scans every service; one insert does not
  (void)selector.add_service("second", {400.0, 95.0, 20.0, 70.0});
  EXPECT_EQ(selector.load_dominance_tests(), load);
  EXPECT_GT(selector.incremental_dominance_tests(), first);
}

// The first write loads the structure with the full run's skyline first;
// through adds and removes (skyline members among them) the selector keeps
// answering what a fresh MapReduce run over its catalog answers.
TEST(SkylineServiceSelector, LoadFromTheRunSkylineMatchesAFreshRun) {
  const ServiceCatalog all = ServiceCatalog::synthetic(700, 4, 61);
  ServiceCatalog initial(all.schema());
  for (std::size_t i = 0; i < 600; ++i) initial.add(all.services()[i]);
  SkylineServiceSelector selector(std::move(initial), small_config());
  (void)selector.skyline();
  const auto fresh_run_ids = [&] {
    const auto run = core::run_mr_skyline(selector.catalog().to_oriented_points(), small_config());
    std::vector<data::PointId> ids(run.skyline.ids().begin(), run.skyline.ids().end());
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  const auto selector_ids = [&] {
    std::vector<data::PointId> ids;
    for (const auto& s : selector.skyline()) ids.push_back(s.id);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  for (std::size_t i = 600; i < 700; ++i) {
    (void)selector.add_service(all.services()[i].name, all.services()[i].qos);
    if (i % 4 == 0) {
      ASSERT_TRUE(selector.remove_service(selector.skyline().front().id));
    } else if (i % 4 == 1) {
      const auto& live = selector.catalog().services();
      ASSERT_TRUE(selector.remove_service(live[(i * 7) % live.size()].id));
    }
    if (i % 10 == 0) {
      ASSERT_EQ(selector_ids(), fresh_run_ids()) << "after service " << i;
    }
  }
  EXPECT_EQ(selector_ids(), fresh_run_ids());
  EXPECT_GT(selector.load_dominance_tests(), 0u);
}

TEST(SkylineServiceSelector, EmptyCatalogThrowsOnQuery) {
  SkylineServiceSelector selector(ServiceCatalog(data::qws_schema(2)), small_config());
  EXPECT_THROW((void)selector.skyline(), mrsky::InvalidArgument);
}

TEST(SkylineServiceSelector, LastRunExposesMetrics) {
  SkylineServiceSelector selector(ServiceCatalog::synthetic(300, 3, 11), small_config());
  (void)selector.skyline();
  EXPECT_GT(selector.last_run().partition_job.total_work_units(), 0u);
  EXPECT_FALSE(selector.last_run().local_skylines.empty());
}

TEST(SkylineServiceSelector, WorksWithEveryScheme) {
  for (part::Scheme scheme : {part::Scheme::kDimensional, part::Scheme::kGrid,
                              part::Scheme::kAngular, part::Scheme::kPivot,
                              part::Scheme::kRandom}) {
    auto config = small_config();
    config.scheme = scheme;
    SkylineServiceSelector selector(ServiceCatalog::synthetic(400, 3, 13), config);
    const auto expected =
        skyline::bnl_skyline(selector.catalog().to_oriented_points());
    EXPECT_EQ(selector.skyline().size(), expected.size()) << part::to_string(scheme);
  }
}

}  // namespace
}  // namespace mrsky::qos
