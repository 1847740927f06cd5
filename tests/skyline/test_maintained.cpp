#include "src/skyline/maintained.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/qws.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/verify.hpp"
#include "tests/support/quarter_grid.hpp"

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

// ---- Differential tests against the pre-flat structure ----------------------
//
// The structure as it stood before its flat layout (per-slot dominee vectors,
// a node hash map, a scalar member scan), kept verbatim but renamed. Fed the
// same operations in the same order, the flat structure must agree with it on
// every observable: skyline ids and bits, liveness, erase results and every
// counter.

class ReferenceMaintainedSkyline {
 public:
  /// Empty structure over `dim`-dimensional points (dim >= 1).
  explicit ReferenceMaintainedSkyline(std::size_t dim);

  /// Bulk load: inserts every point of `ps` in order — O(n·|SKY|) dominance
  /// tests. Duplicate ids are rejected (the structure is keyed by id).
  explicit ReferenceMaintainedSkyline(const data::PointSet& ps);

  /// Offers a live point under `id` (must not be live already). Returns true
  /// iff it enters the skyline; skyline members it dominates are demoted
  /// under it, together with their dominee lists (dominance is transitive).
  bool insert(std::span<const double> coords, data::PointId id);

  struct EraseResult {
    bool erased = false;       ///< id was live (false: nothing happened)
    bool was_skyline = false;  ///< it was a skyline member
    /// Ids promoted into the skyline by this erase, ascending. Only a
    /// skyline-member erase can promote; a dominee that was promoted and then
    /// immediately demoted by a dominating sibling candidate is not listed.
    std::vector<data::PointId> promoted;
  };

  /// Removes the live point `id`, promoting exactly the points it exclusively
  /// dominated that no remaining point dominates. Unknown ids are a no-op
  /// (erased=false) — the caller decides whether that is an error.
  EraseResult erase(data::PointId id);

  [[nodiscard]] bool contains(data::PointId id) const { return index_.count(id) != 0; }
  /// True iff `id` is live and currently a skyline member.
  [[nodiscard]] bool on_skyline(data::PointId id) const;

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t size() const noexcept { return index_.size(); }
  [[nodiscard]] std::size_t skyline_size() const noexcept { return skyline_slots_.size(); }

  /// Canonical (ascending-id) copy of the current skyline.
  [[nodiscard]] data::PointSet skyline_points() const;
  /// Ascending ids of the current skyline.
  [[nodiscard]] std::vector<data::PointId> skyline_ids() const;

  [[nodiscard]] const SkylineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t promotions() const noexcept { return promotions_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Node {
    data::PointId id = 0;
    std::uint32_t guard = kNoSlot;  ///< skyline slot guarding us (kNoSlot = on skyline)
    std::uint32_t guard_pos = 0;    ///< our index in the guard's dominee list
    bool skyline = false;
  };

  [[nodiscard]] std::span<const double> coords(std::uint32_t slot) const noexcept {
    return {coords_.data() + static_cast<std::size_t>(slot) * dim_, dim_};
  }

  std::uint32_t alloc_slot(std::span<const double> c, data::PointId id);
  void release_slot(std::uint32_t slot);
  /// Parks `slot` in `guard`'s dominee list.
  void attach(std::uint32_t slot, std::uint32_t guard);
  /// Removes `slot` from its guard's dominee list (swap-remove, O(1)).
  void detach(std::uint32_t slot);
  /// Runs the insertion logic on an existing slot: park it under the first
  /// skyline dominator, or make it a skyline member, demoting (and absorbing
  /// the dominee lists of) every member it dominates. Returns true iff the
  /// slot ended on the skyline.
  bool raise(std::uint32_t slot);

  std::size_t dim_;
  std::vector<double> coords_;                      ///< slot-major coordinates
  std::vector<Node> nodes_;                         ///< one per slot
  std::vector<std::vector<std::uint32_t>> dominees_;  ///< per-slot exclusive dominees
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> skyline_slots_;  ///< deterministic scan order
  std::unordered_map<data::PointId, std::uint32_t> index_;
  SkylineStats stats_;
  std::uint64_t promotions_ = 0;
};


ReferenceMaintainedSkyline::ReferenceMaintainedSkyline(std::size_t dim) : dim_(dim) {
  if (dim_ == 0) throw InvalidArgument("ReferenceMaintainedSkyline: dim must be >= 1");
}

ReferenceMaintainedSkyline::ReferenceMaintainedSkyline(const data::PointSet& ps) : ReferenceMaintainedSkyline(ps.dim()) {
  for (std::size_t i = 0; i < ps.size(); ++i) {
    insert(ps.point(i), ps.id(i));
  }
}

std::uint32_t ReferenceMaintainedSkyline::alloc_slot(std::span<const double> c, data::PointId id) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    std::copy(c.begin(), c.end(), coords_.begin() + static_cast<std::ptrdiff_t>(slot) * static_cast<std::ptrdiff_t>(dim_));
  } else {
    slot = static_cast<std::uint32_t>(nodes_.size());
    coords_.insert(coords_.end(), c.begin(), c.end());
    nodes_.emplace_back();
    dominees_.emplace_back();
  }
  nodes_[slot] = Node{id, kNoSlot, 0, false};
  index_.emplace(id, slot);
  return slot;
}

void ReferenceMaintainedSkyline::release_slot(std::uint32_t slot) {
  index_.erase(nodes_[slot].id);
  dominees_[slot].clear();
  nodes_[slot].skyline = false;
  nodes_[slot].guard = kNoSlot;
  free_slots_.push_back(slot);
}

void ReferenceMaintainedSkyline::attach(std::uint32_t slot, std::uint32_t guard) {
  nodes_[slot].guard = guard;
  nodes_[slot].guard_pos = static_cast<std::uint32_t>(dominees_[guard].size());
  nodes_[slot].skyline = false;
  dominees_[guard].push_back(slot);
}

void ReferenceMaintainedSkyline::detach(std::uint32_t slot) {
  const std::uint32_t guard = nodes_[slot].guard;
  auto& list = dominees_[guard];
  const std::uint32_t pos = nodes_[slot].guard_pos;
  list[pos] = list.back();
  nodes_[list[pos]].guard_pos = pos;
  list.pop_back();
  nodes_[slot].guard = kNoSlot;
}

bool ReferenceMaintainedSkyline::raise(std::uint32_t slot) {
  const std::span<const double> p = coords(slot);

  // Pass 1: park under the first current skyline member that dominates us.
  // Ties (duplicate coordinates) do not dominate either way, so duplicates
  // coexist on the skyline — matching naive_skyline/bnl_skyline semantics.
  for (std::uint32_t member : skyline_slots_) {
    ++stats_.dominance_tests;
    if (dominates(coords(member), p)) {
      attach(slot, member);
      return false;
    }
  }

  // Pass 2: we join the skyline. Demote every member we dominate under us,
  // and absorb their dominee lists wholesale: p ≤ member everywhere (strict
  // somewhere) and member ≤ dominee everywhere gives p ≤ dominee everywhere
  // with strictness inherited from p < member's witness attribute.
  std::size_t keep = 0;
  for (std::size_t i = 0; i < skyline_slots_.size(); ++i) {
    const std::uint32_t member = skyline_slots_[i];
    ++stats_.dominance_tests;
    if (dominates(p, coords(member))) {
      for (std::uint32_t dominee : dominees_[member]) {
        nodes_[dominee].guard = slot;
        nodes_[dominee].guard_pos = static_cast<std::uint32_t>(dominees_[slot].size());
        dominees_[slot].push_back(dominee);
      }
      dominees_[member].clear();
      attach(member, slot);
    } else {
      skyline_slots_[keep++] = member;
    }
  }
  skyline_slots_.resize(keep);
  nodes_[slot].skyline = true;
  nodes_[slot].guard = kNoSlot;
  skyline_slots_.push_back(slot);
  return true;
}

bool ReferenceMaintainedSkyline::insert(std::span<const double> c, data::PointId id) {
  if (c.size() != dim_) throw InvalidArgument("ReferenceMaintainedSkyline::insert: dimension mismatch");
  if (index_.count(id) != 0) throw InvalidArgument("ReferenceMaintainedSkyline::insert: duplicate id");
  ++stats_.points_in;
  const std::uint32_t slot = alloc_slot(c, id);
  const bool entered = raise(slot);
  stats_.points_out = skyline_slots_.size();
  return entered;
}

ReferenceMaintainedSkyline::EraseResult ReferenceMaintainedSkyline::erase(data::PointId id) {
  EraseResult result;
  const auto it = index_.find(id);
  if (it == index_.end()) return result;
  result.erased = true;
  const std::uint32_t slot = it->second;

  if (!nodes_[slot].skyline) {
    detach(slot);
    release_slot(slot);
    stats_.points_out = skyline_slots_.size();
    return result;
  }

  result.was_skyline = true;
  skyline_slots_.erase(std::find(skyline_slots_.begin(), skyline_slots_.end(), slot));

  // The erased member's exclusive dominees are the only points that can
  // change status. Free the slot first so it cannot act as a dominator, then
  // raise candidates in ascending-id order: the order cannot change the
  // resulting skyline (a candidate dominated by a sibling is absorbed when
  // that sibling raises, whichever goes first), but fixing it makes guard
  // assignment — and therefore the counters — deterministic.
  std::vector<std::uint32_t> candidates = std::move(dominees_[slot]);
  dominees_[slot].clear();
  for (std::uint32_t cand : candidates) nodes_[cand].guard = kNoSlot;
  release_slot(slot);

  std::sort(candidates.begin(), candidates.end(),
            [this](std::uint32_t a, std::uint32_t b) { return nodes_[a].id < nodes_[b].id; });
  for (std::uint32_t cand : candidates) raise(cand);
  for (std::uint32_t cand : candidates) {
    if (nodes_[cand].skyline) {
      result.promoted.push_back(nodes_[cand].id);
      ++promotions_;
    }
  }
  stats_.points_out = skyline_slots_.size();
  return result;
}

bool ReferenceMaintainedSkyline::on_skyline(data::PointId id) const {
  const auto it = index_.find(id);
  return it != index_.end() && nodes_[it->second].skyline;
}

data::PointSet ReferenceMaintainedSkyline::skyline_points() const {
  std::vector<std::uint32_t> slots = skyline_slots_;
  std::sort(slots.begin(), slots.end(),
            [this](std::uint32_t a, std::uint32_t b) { return nodes_[a].id < nodes_[b].id; });
  data::PointSet out(dim_);
  out.reserve(slots.size());
  for (std::uint32_t slot : slots) out.push_back(coords(slot), nodes_[slot].id);
  return out;
}

std::vector<data::PointId> ReferenceMaintainedSkyline::skyline_ids() const {
  std::vector<data::PointId> ids;
  ids.reserve(skyline_slots_.size());
  for (std::uint32_t slot : skyline_slots_) ids.push_back(nodes_[slot].id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Loads `ref` in the flat structure's bulk order: the rows whose ids
/// `first` lists (ids of `ps` only, first occurrence) in ascending coordinate
/// sum (stable, a NaN sum last), then every other row in input order.
void load_reference(ReferenceMaintainedSkyline& ref, const PointSet& ps,
                    std::span<const data::PointId> first) {
  std::unordered_map<data::PointId, std::size_t> row_of;
  for (std::size_t i = 0; i < ps.size(); ++i) row_of.emplace(ps.id(i), i);
  std::vector<char> placed(ps.size(), 0);
  std::vector<std::pair<double, std::size_t>> by_sum;
  for (const data::PointId id : first) {
    const auto it = row_of.find(id);
    if (it == row_of.end() || placed[it->second] != 0) continue;
    placed[it->second] = 1;
    double sum = 0.0;
    for (const double v : ps.point(it->second)) sum += v;
    by_sum.emplace_back(std::isnan(sum) ? std::numeric_limits<double>::infinity() : sum,
                        it->second);
  }
  std::stable_sort(by_sum.begin(), by_sum.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [sum, row] : by_sum) (void)ref.insert(ps.point(row), ps.id(row));
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (placed[i] == 0) (void)ref.insert(ps.point(i), ps.id(i));
  }
}

bool same_bits(const PointSet& a, const PointSet& b) {
  return a.dim() == b.dim() && a.size() == b.size() &&
         std::equal(a.ids().begin(), a.ids().end(), b.ids().begin()) &&
         std::memcmp(a.raw().data(), b.raw().data(), a.raw().size_bytes()) == 0;
}

/// Every observable of `got` equals `want`'s; `probe` lists the ids whose
/// liveness and membership are compared (live and departed ones).
void expect_same_state(const MaintainedSkyline& got, const ReferenceMaintainedSkyline& want,
                       std::span<const data::PointId> probe, const std::string& where) {
  ASSERT_EQ(got.skyline_ids(), want.skyline_ids()) << where;
  EXPECT_TRUE(same_bits(got.skyline_points(), want.skyline_points())) << where;
  EXPECT_EQ(got.size(), want.size()) << where;
  EXPECT_EQ(got.skyline_size(), want.skyline_size()) << where;
  for (const data::PointId id : probe) {
    ASSERT_EQ(got.contains(id), want.contains(id)) << where << " id=" << id;
    ASSERT_EQ(got.on_skyline(id), want.on_skyline(id)) << where << " id=" << id;
  }
  EXPECT_EQ(got.stats().dominance_tests, want.stats().dominance_tests) << where;
  EXPECT_EQ(got.stats().points_in, want.stats().points_in) << where;
  EXPECT_EQ(got.stats().points_out, want.stats().points_out) << where;
  EXPECT_EQ(got.promotions(), want.promotions()) << where;
}

enum class Family { kQws, kIndependent, kAnticorrelated, kQuarterGrid, kDuplicates, kSignedZeros };

enum class Hint { kExact, kComputed, kEmpty, kPartial, kWrong };

struct DiffCase {
  std::string name;
  Family family;
  std::size_t dim;
  std::uint64_t seed;
  bool sparse_ids;  ///< random unique 32-bit ids instead of 0..n-1
  Hint hint;
};

/// A pool of rows for one case, ids assigned as the case asks.
PointSet make_pool(const DiffCase& c, std::size_t n) {
  PointSet raw(c.dim);
  switch (c.family) {
    case Family::kQws: raw = data::QwsLikeGenerator(c.dim, c.seed).generate_oriented(n); break;
    case Family::kIndependent:
      raw = data::generate(data::Distribution::kIndependent, n, c.dim, c.seed);
      break;
    case Family::kAnticorrelated:
      raw = data::generate(data::Distribution::kAnticorrelated, n, c.dim, c.seed);
      break;
    case Family::kQuarterGrid:
      raw = test::snap_to_quarter_grid(
          data::generate(data::Distribution::kAnticorrelated, n, c.dim, c.seed));
      break;
    case Family::kDuplicates: {
      // Every row repeats one of n/8 distinct rows exactly.
      const PointSet base =
          data::generate(data::Distribution::kIndependent, n / 8, c.dim, c.seed);
      common::Rng rng(c.seed);
      raw = PointSet(c.dim);
      for (std::size_t i = 0; i < n; ++i) {
        raw.push_back(base.point(rng.uniform_index(base.size())), 0);
      }
      break;
    }
    case Family::kSignedZeros:
      raw = test::with_negative_zeros(test::snap_to_quarter_grid(
          data::generate(data::Distribution::kIndependent, n, c.dim, c.seed)));
      break;
  }
  std::vector<data::PointId> ids(n);
  if (c.sparse_ids) {
    common::Rng rng(c.seed ^ 0x1d5ull);
    std::unordered_set<data::PointId> seen;
    for (auto& id : ids) {
      do {
        id = static_cast<data::PointId>(rng());
      } while (!seen.insert(id).second);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) ids[i] = static_cast<data::PointId>(i);
  }
  return PointSet(c.dim, std::vector<double>(raw.raw().begin(), raw.raw().end()), std::move(ids));
}

/// The hint a case loads first: F itself, nothing, every other row of F,
/// or F plus dominated rows and ids that are not rows at all, shuffled.
std::vector<data::PointId> make_hint(Hint hint, const PointSet& rows, std::uint64_t seed) {
  const PointSet sky = bnl_skyline(rows);
  std::vector<data::PointId> f(sky.ids().begin(), sky.ids().end());
  common::Rng rng(seed);
  switch (hint) {
    case Hint::kExact:
    case Hint::kComputed: return f;
    case Hint::kEmpty: return {};
    case Hint::kPartial: {
      std::vector<data::PointId> half;
      for (std::size_t i = 0; i < f.size(); i += 2) half.push_back(f[i]);
      return half;
    }
    case Hint::kWrong: {
      std::vector<data::PointId> wrong = f;
      for (std::size_t i = 0; i < rows.size(); i += 5) wrong.push_back(rows.id(i));
      wrong.push_back(f.empty() ? 0 : f.front());  // a repeat
      wrong.push_back(0xFFFFFFF0u);                // not a row
      for (std::size_t i = wrong.size(); i > 1; --i) {
        std::swap(wrong[i - 1], wrong[rng.uniform_index(i)]);
      }
      return wrong;
    }
  }
  return f;
}

class MaintainedSkylineDifferential : public ::testing::TestWithParam<DiffCase> {};

// Seeded insert/erase schedules on both structures, compared after every
// operation. Erases favour skyline members so promotions, sibling demotions
// and whole-list splices happen often; some erase ids that are not live.
TEST_P(MaintainedSkylineDifferential, MatchesTheReferenceAfterEveryOperation) {
  const DiffCase& c = GetParam();
  constexpr std::size_t kPool = 520;
  constexpr std::size_t kInitial = 200;
  const PointSet pool = make_pool(c, kPool);
  std::vector<std::size_t> initial_rows(kInitial);
  for (std::size_t i = 0; i < kInitial; ++i) initial_rows[i] = i;
  const PointSet initial = pool.select(initial_rows);
  const std::vector<data::PointId> hint = make_hint(c.hint, initial, c.seed);

  MaintainedSkyline got = c.hint == Hint::kComputed ? MaintainedSkyline(initial)
                                                     : MaintainedSkyline(initial, hint);
  ReferenceMaintainedSkyline want(c.dim);
  load_reference(want, initial, hint);
  const std::vector<data::PointId> all_ids(pool.ids().begin(), pool.ids().end());
  expect_same_state(got, want, all_ids, c.name + " load");
  ASSERT_TRUE(same_ids(got.skyline_points(), naive_skyline(initial)));

  common::Rng rng(c.seed * 31 + 7);
  std::vector<data::PointId> live(initial.ids().begin(), initial.ids().end());
  std::vector<data::PointId> gone;
  std::size_t next = kInitial;
  for (int op = 0; op < 420; ++op) {
    const std::string where = c.name + " op " + std::to_string(op);
    const std::uint64_t roll = rng.uniform_index(10);
    if ((roll < 4 || live.empty()) && next < pool.size()) {
      const bool entered = got.insert(pool.point(next), pool.id(next));
      ASSERT_EQ(entered, want.insert(pool.point(next), pool.id(next))) << where;
      live.push_back(pool.id(next++));
    } else if (roll == 9 && !gone.empty()) {
      const data::PointId id = gone[rng.uniform_index(gone.size())];
      const auto r = got.erase(id);
      EXPECT_FALSE(r.erased) << where;
      EXPECT_FALSE(want.erase(id).erased) << where;
    } else if (!live.empty()) {
      data::PointId id = live[rng.uniform_index(live.size())];
      const std::vector<data::PointId> sky = got.skyline_ids();
      if (roll < 7 && !sky.empty()) id = sky[rng.uniform_index(sky.size())];
      const auto r = got.erase(id);
      const auto w = want.erase(id);
      ASSERT_TRUE(r.erased) << where;
      EXPECT_EQ(r.erased, w.erased) << where;
      EXPECT_EQ(r.was_skyline, w.was_skyline) << where;
      EXPECT_EQ(r.promoted, w.promoted) << where;
      live.erase(std::find(live.begin(), live.end(), id));
      gone.push_back(id);
    } else {
      break;
    }
    expect_same_state(got, want, all_ids, where);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Every live id is still findable through the table after the churn.
  for (const data::PointId id : live) ASSERT_TRUE(got.contains(id)) << c.name << " id=" << id;
}

std::vector<DiffCase> differential_cases() {
  const std::vector<std::pair<const char*, Family>> families = {
      {"qws", Family::kQws},
      {"independent", Family::kIndependent},
      {"anticorrelated", Family::kAnticorrelated},
      {"quarter_grid", Family::kQuarterGrid},
      {"duplicates", Family::kDuplicates},
      {"signed_zeros", Family::kSignedZeros},
  };
  const std::vector<std::pair<const char*, Hint>> hints = {
      {"exact", Hint::kExact},   {"computed", Hint::kComputed}, {"empty", Hint::kEmpty},
      {"partial", Hint::kPartial}, {"wrong", Hint::kWrong},
  };
  std::vector<DiffCase> cases;
  std::uint64_t seed = 101;
  for (const auto& [fname, family] : families) {
    for (std::size_t k = 0; k < 3; ++k) {
      const auto& [hname, hint] = hints[(cases.size() + k) % hints.size()];
      const std::size_t dim = 2 + (seed % 4);
      const bool sparse = k != 1;
      cases.push_back(DiffCase{std::string(fname) + "_" + hname + "_d" + std::to_string(dim) +
                                   (sparse ? "_sparse" : "_dense"),
                               family, dim, seed++, sparse, hint});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Cases, MaintainedSkylineDifferential,
                         ::testing::ValuesIn(differential_cases()),
                         [](const ::testing::TestParamInfo<DiffCase>& param_info) {
                           return param_info.param.name;
                         });

// Whatever the hint — exact, empty, partial, or wrong (dominated rows, a
// repeat, an id that is no row) — the load gives the same skyline, at the
// reference's count for the same order.
TEST(MaintainedSkyline, LoadHintsNeverChangeTheSkyline) {
  const PointSet ps = data::QwsLikeGenerator(4, 17).generate_oriented(3000);
  const PointSet want = bnl_skyline(ps);
  std::uint64_t exact_tests = 0;
  for (const Hint hint : {Hint::kExact, Hint::kEmpty, Hint::kPartial, Hint::kWrong}) {
    const std::vector<data::PointId> first = make_hint(hint, ps, 5);
    const MaintainedSkyline ms(ps, first);
    EXPECT_TRUE(same_bits(ms.skyline_points(), want)) << static_cast<int>(hint);
    EXPECT_EQ(ms.size(), ps.size());
    ReferenceMaintainedSkyline ref(ps.dim());
    load_reference(ref, ps, first);
    EXPECT_EQ(ms.stats().dominance_tests, ref.stats().dominance_tests) << static_cast<int>(hint);
    if (hint == Hint::kEmpty) {
      // No hint is the reference's own bulk load: input order.
      const ReferenceMaintainedSkyline input_order(ps);
      EXPECT_EQ(ms.stats().dominance_tests, input_order.stats().dominance_tests);
    }
    if (hint == Hint::kExact) exact_tests = ms.stats().dominance_tests;
  }
  // Without a hint the structure computes F itself and loads the same way.
  const MaintainedSkyline computed(ps);
  EXPECT_TRUE(same_bits(computed.skyline_points(), want));
  EXPECT_EQ(computed.stats().dominance_tests, exact_tests);
}

TEST(MaintainedSkyline, BulkLoadWithDuplicateIdsThrows) {
  const PointSet ps(2, {1.0, 2.0, 3.0, 4.0, 0.5, 0.5}, {4, 9, 4});
  EXPECT_THROW(MaintainedSkyline{ps}, InvalidArgument);
  EXPECT_THROW((MaintainedSkyline{ps, std::vector<data::PointId>{9}}), InvalidArgument);
}

TEST(MaintainedSkyline, DuplicateInsertChangesNothing) {
  const PointSet ps = data::generate(data::Distribution::kAnticorrelated, 300, 3, 8);
  MaintainedSkyline ms(ps);
  const auto ids = ms.skyline_ids();
  const auto stats = ms.stats();
  EXPECT_THROW(ms.insert(std::vector<double>{0.0, 0.0, 0.0}, ps.id(17)), InvalidArgument);
  EXPECT_EQ(ms.skyline_ids(), ids);
  EXPECT_EQ(ms.size(), ps.size());
  EXPECT_EQ(ms.stats().dominance_tests, stats.dominance_tests);
  EXPECT_EQ(ms.stats().points_in, stats.points_in);
}

}  // namespace
}  // namespace mrsky::skyline
