#include "src/skyline/maintained.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/dataset/generators.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/verify.hpp"

namespace mrsky::skyline {
namespace {

using data::PointSet;

TEST(MaintainedSkyline, StartsEmpty) {
  MaintainedSkyline ms(2);
  EXPECT_EQ(ms.size(), 0u);
  EXPECT_EQ(ms.skyline_size(), 0u);
}

TEST(MaintainedSkyline, ZeroDimThrows) { EXPECT_THROW(MaintainedSkyline(0), InvalidArgument); }

TEST(MaintainedSkyline, DimensionMismatchThrows) {
  MaintainedSkyline ms(3);
  EXPECT_THROW(ms.insert(std::vector<double>{1.0, 2.0}, 0), InvalidArgument);
}

TEST(MaintainedSkyline, DuplicateIdThrows) {
  MaintainedSkyline ms(2);
  (void)ms.insert(std::vector<double>{1.0, 2.0}, 7);
  EXPECT_THROW(ms.insert(std::vector<double>{3.0, 4.0}, 7), InvalidArgument);
}

TEST(MaintainedSkyline, InsertMatchesIncrementalSemantics) {
  MaintainedSkyline ms(2);
  EXPECT_TRUE(ms.insert(std::vector<double>{3.0, 3.0}, 0));
  EXPECT_FALSE(ms.insert(std::vector<double>{4.0, 4.0}, 1));  // dominated
  EXPECT_TRUE(ms.insert(std::vector<double>{0.5, 5.0}, 2));   // incomparable
  EXPECT_TRUE(ms.insert(std::vector<double>{1.0, 1.0}, 3));   // dominates 0 (and transitively 1)
  EXPECT_EQ(ms.skyline_ids(), (std::vector<data::PointId>{2, 3}));
  EXPECT_EQ(ms.size(), 4u);  // demoted points stay live
}

TEST(MaintainedSkyline, EraseUnknownIdIsNoop) {
  MaintainedSkyline ms(2);
  (void)ms.insert(std::vector<double>{1.0, 1.0}, 0);
  const auto r = ms.erase(99);
  EXPECT_FALSE(r.erased);
  EXPECT_EQ(ms.size(), 1u);
}

TEST(MaintainedSkyline, EraseNonSkylinePointLeavesSkylineUntouched) {
  MaintainedSkyline ms(2);
  (void)ms.insert(std::vector<double>{1.0, 1.0}, 0);
  (void)ms.insert(std::vector<double>{2.0, 2.0}, 1);  // dominated by 0
  const auto before = ms.stats().dominance_tests;
  const auto r = ms.erase(1);
  EXPECT_TRUE(r.erased);
  EXPECT_FALSE(r.was_skyline);
  EXPECT_TRUE(r.promoted.empty());
  EXPECT_EQ(ms.stats().dominance_tests, before);  // no dominance work at all
  EXPECT_EQ(ms.skyline_ids(), (std::vector<data::PointId>{0}));
}

TEST(MaintainedSkyline, EraseSkylineMemberPromotesExclusiveDominee) {
  MaintainedSkyline ms(2);
  (void)ms.insert(std::vector<double>{1.0, 1.0}, 0);
  (void)ms.insert(std::vector<double>{2.0, 2.0}, 1);  // exclusively under 0
  const auto r = ms.erase(0);
  EXPECT_TRUE(r.was_skyline);
  EXPECT_EQ(r.promoted, (std::vector<data::PointId>{1}));
  EXPECT_EQ(ms.skyline_ids(), (std::vector<data::PointId>{1}));
  EXPECT_EQ(ms.promotions(), 1u);
}

TEST(MaintainedSkyline, ErasedMemberDomineeReparksUnderSurvivor) {
  // 2 is dominated by both 0 and 1; it parks under whichever was scanned
  // first. Deleting that guard must re-park it, not promote it.
  MaintainedSkyline ms(2);
  (void)ms.insert(std::vector<double>{1.0, 4.0}, 0);
  (void)ms.insert(std::vector<double>{2.0, 1.0}, 1);
  (void)ms.insert(std::vector<double>{3.0, 5.0}, 2);  // dominated by 0 only... check: 0=(1,4)≤(3,5) yes; 1=(2,1)≤(3,5) yes
  const auto r0 = ms.erase(0);
  EXPECT_TRUE(r0.was_skyline);
  EXPECT_TRUE(r0.promoted.empty());  // 1 still dominates 2
  EXPECT_EQ(ms.skyline_ids(), (std::vector<data::PointId>{1}));
  EXPECT_TRUE(ms.contains(2));
  EXPECT_FALSE(ms.on_skyline(2));
}

TEST(MaintainedSkyline, CandidateDominatedBySiblingCandidateIsNotPromoted) {
  // Both 1 and 2 park under 0; 1 dominates 2, so deleting 0 promotes only 1.
  MaintainedSkyline ms(2);
  (void)ms.insert(std::vector<double>{1.0, 1.0}, 0);
  (void)ms.insert(std::vector<double>{2.0, 2.0}, 1);
  (void)ms.insert(std::vector<double>{3.0, 3.0}, 2);
  const auto r = ms.erase(0);
  EXPECT_EQ(r.promoted, (std::vector<data::PointId>{1}));
  EXPECT_EQ(ms.skyline_ids(), (std::vector<data::PointId>{1}));
  EXPECT_TRUE(ms.contains(2));  // 2 stays live, parked under 1 now
}

TEST(MaintainedSkyline, DuplicateCoordinatesCoexistAndSurviveErase) {
  MaintainedSkyline ms(2);
  (void)ms.insert(std::vector<double>{1.0, 1.0}, 0);
  (void)ms.insert(std::vector<double>{1.0, 1.0}, 1);  // tie: neither dominates
  EXPECT_EQ(ms.skyline_ids(), (std::vector<data::PointId>{0, 1}));
  (void)ms.erase(0);
  EXPECT_EQ(ms.skyline_ids(), (std::vector<data::PointId>{1}));
}

TEST(MaintainedSkyline, ReinsertAfterEraseReusesId) {
  MaintainedSkyline ms(2);
  (void)ms.insert(std::vector<double>{1.0, 1.0}, 0);
  (void)ms.erase(0);
  EXPECT_TRUE(ms.insert(std::vector<double>{2.0, 2.0}, 0));
  EXPECT_EQ(ms.skyline_ids(), (std::vector<data::PointId>{0}));
}

TEST(MaintainedSkyline, BulkLoadMatchesBnl) {
  const PointSet ps = data::generate(data::Distribution::kAnticorrelated, 500, 3, 31);
  MaintainedSkyline ms(ps);
  EXPECT_TRUE(same_ids(ms.skyline_points(), bnl_skyline(ps)));
  EXPECT_EQ(ms.size(), ps.size());
}

// The tentpole's exactness claim: after ANY interleaving of inserts and
// deletes, the maintained skyline is exactly naive_skyline of the live set.
TEST(MaintainedSkyline, RandomizedDeleteOracle) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    common::Rng rng(seed * 0x9e3779b9ull + 0xb105ull);
    const std::size_t dim = 2 + rng.uniform_index(4);
    const auto dist = static_cast<data::Distribution>(rng.uniform_index(4));
    const PointSet ps = data::generate(dist, 160, dim, 1000 + seed);

    MaintainedSkyline ms(dim);
    std::vector<std::size_t> live;  // rows of ps currently inserted
    std::size_t next = 0;

    for (int op = 0; op < 400; ++op) {
      const bool do_delete = !live.empty() && (next >= ps.size() || rng.uniform_index(3) == 0);
      if (do_delete) {
        const std::size_t pick = rng.uniform_index(live.size());
        const std::size_t row = live[pick];
        live[pick] = live.back();
        live.pop_back();
        const auto r = ms.erase(ps.id(row));
        EXPECT_TRUE(r.erased);
      } else if (next < ps.size()) {
        (void)ms.insert(ps.point(next), ps.id(next));
        live.push_back(next);
        ++next;
      } else {
        break;
      }
      // Oracle: recompute from scratch over the live rows.
      PointSet alive(dim);
      std::vector<std::size_t> rows = live;
      std::sort(rows.begin(), rows.end());
      for (std::size_t row : rows) alive.push_back(ps.point(row), ps.id(row));
      EXPECT_TRUE(same_ids(ms.skyline_points(), naive_skyline(alive)))
          << "seed=" << seed << " op=" << op;
    }
  }
}

// Promoted ids reported by erase must be exactly the skyline ids gained.
TEST(MaintainedSkyline, PromotedIdsMatchSkylineDiff) {
  common::Rng rng(0x5eedull);
  const PointSet ps = data::generate(data::Distribution::kCorrelated, 300, 3, 77);
  MaintainedSkyline ms(ps);
  std::vector<data::PointId> live_ids(ps.ids().begin(), ps.ids().end());
  for (int op = 0; op < 120 && !live_ids.empty(); ++op) {
    const std::size_t pick = rng.uniform_index(live_ids.size());
    const data::PointId victim = live_ids[pick];
    live_ids[pick] = live_ids.back();
    live_ids.pop_back();

    const auto before = ms.skyline_ids();
    const auto r = ms.erase(victim);
    ASSERT_TRUE(r.erased);
    const auto after = ms.skyline_ids();

    std::vector<data::PointId> gained;
    std::set_difference(after.begin(), after.end(), before.begin(), before.end(),
                        std::back_inserter(gained));
    EXPECT_EQ(r.promoted, gained);
  }
}

TEST(MaintainedSkyline, CountersAreDeterministic) {
  // Same operation sequence twice → identical counters (build-invariant
  // scalar charging; the sweep suite checks this cross-mode too).
  auto run = [] {
    const PointSet ps = data::generate(data::Distribution::kIndependent, 200, 3, 5);
    MaintainedSkyline ms(ps);
    for (data::PointId id = 0; id < 100; id += 3) (void)ms.erase(id);
    return ms.stats().dominance_tests;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace mrsky::skyline
