// Exact skyline maintenance under insertions AND deletions — the library's
// one maintenance structure. QueryEngine writes (apply_batch, and
// insert_batch through it) and the qos::SkylineServiceSelector's adds and
// removes all run on it, each loading it from its live rows at the first
// write (DESIGN.md decision 20).
//
// A structure that kept only the skyline could not delete: removing a
// skyline member can resurrect points it was hiding, and the skyline alone
// cannot say which. This class keeps the bookkeeping that makes deletion
// exact without a full recompute — the streaming-skyline literature's
// "exclusive dominance set" idea (Lin et al., "Stabbing the sky", ICDE'05;
// Tao & Papadias' sliding-window maintenance):
//
//  * every live point is either a skyline member or is parked under exactly
//    ONE skyline member that dominates it (its GUARD);
//  * deleting a non-skyline point detaches it from its guard — O(1), the
//    skyline is untouched;
//  * deleting a skyline member re-examines exactly its own dominee list: each
//    dominee either finds another current skyline dominator (re-parked), is
//    dominated by a sibling candidate (parked under it once that sibling is
//    promoted), or joins the skyline itself. Points parked under OTHER guards
//    need no attention — their guard still dominates them.
//
// The guard choice (first dominator in scan order) does not affect which
// points are on the skyline — only how deletion work is distributed — and the
// scan order is deterministic, so fixed operation sequences give fixed
// counters and byte-identical skylines on every build.
//
// Layout: flat per-slot arrays, with no per-point allocation.
//  * Slot s holds its coordinates (slot-major), its id and one pair of
//    intrusive links. A parked slot's links thread it into a circular list of
//    its guard's dominees; a member's own links are that list's head, so an
//    empty list points at itself. Detaching is O(1), and demoting a member
//    splices its whole list, then the member itself, onto the new member's
//    list in O(1): dominees never record which member guards them.
//  * id → slot is one open-addressing table (linear probing, power-of-two
//    capacity, sized at the load, doubled when half full). Erase shifts the
//    probe run back over the hole, leaving no tombstone, so a table under
//    churn with fresh ids stays as large as the live set needs. Freed slots
//    are reused.
//  * The members sit in a TiledWindow (payload = slot) in scan order: a new
//    member appends, and a removal compacts stably. Finding the guard is
//    first_dominator (the head tile lane by lane, then the first set lane of
//    dominators_in_block); finding the members a new one dominates reads
//    compare_block's masks.
//
// Load contract: the bulk constructors place every row of `ps` through the
// same logic as insert, the rows of the skyline F first, in ascending
// coordinate sum, then every other row in input order. With an exact F every
// other row parks at its first dominator in F and none can demote a member,
// and the members with the smallest sums, which guard the most rows, lead
// the scan. F is a hint for speed only: a partial or wrong F (ids of
// dominated rows, or ids missing from `ps`) can cost tests but never the
// result. Without one the constructor computes F with bnl_skyline.
//
// Counter policy: stats().dominance_tests charges what the scalar scan would
// evaluate — members up to and including the first dominator when one
// dominates, else every member once to look for a dominator and once more to
// find the members the new one dominates — although the kernel tests eight
// members at a time. The same operation sequence therefore charges the same
// count on every build and kernel path; only the load order moves it.
// promotions() counts dominees that re-entered the skyline when their guard
// was deleted.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/dataset/point_set.hpp"
#include "src/skyline/dominance.hpp"
#include "src/skyline/dominance_block.hpp"

namespace mrsky::skyline {

class MaintainedSkyline {
 public:
  /// Empty structure over `dim`-dimensional points (dim >= 1).
  explicit MaintainedSkyline(std::size_t dim);

  /// Bulk load of every row of `ps`, computing its skyline F with
  /// bnl_skyline to load first. Duplicate ids throw InvalidArgument (the
  /// structure is keyed by id).
  explicit MaintainedSkyline(const data::PointSet& ps);

  /// Bulk load of every row of `ps`, the rows whose ids `skyline_ids` lists
  /// first (in ascending coordinate sum, ties in list order; a NaN sum sorts
  /// last), then the rest in input order. Ids not in `ps`, and repeats, are
  /// skipped. Duplicate ids in `ps` throw InvalidArgument.
  MaintainedSkyline(const data::PointSet& ps, std::span<const data::PointId> skyline_ids);

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

  [[nodiscard]] bool contains(data::PointId id) const { return find(id) != kNoSlot; }
  /// True iff `id` is live and currently a skyline member.
  [[nodiscard]] bool on_skyline(data::PointId id) const;

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }
  [[nodiscard]] std::size_t skyline_size() const noexcept { return members_.size(); }

  /// Canonical (ascending-id) copy of the current skyline.
  [[nodiscard]] data::PointSet skyline_points() const;
  /// Ascending ids of the current skyline.
  [[nodiscard]] std::vector<data::PointId> skyline_ids() const;

  [[nodiscard]] const SkylineStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::uint64_t promotions() const noexcept { return promotions_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// One id-table entry; slot == kNoSlot marks it empty.
  struct IndexEntry {
    data::PointId id = 0;
    std::uint32_t slot = kNoSlot;
  };

  [[nodiscard]] std::span<const double> coords(std::uint32_t slot) const noexcept {
    return {coords_.data() + static_cast<std::size_t>(slot) * dim_, dim_};
  }

  /// Slot of live `id`, or kNoSlot.
  [[nodiscard]] std::uint32_t find(data::PointId id) const noexcept;
  [[nodiscard]] std::size_t home(data::PointId id) const noexcept;
  /// Empties the table and gives it the smallest power-of-two capacity that
  /// keeps `rows` entries at most half full.
  void reset_index(std::size_t rows);
  /// Maps `id` to `slot`; false (and no change) when `id` is already live.
  bool index_insert(data::PointId id, std::uint32_t slot);
  /// Unmaps `id` and returns its slot (kNoSlot if it is not live), shifting
  /// later entries of its probe run back over the hole.
  std::uint32_t index_take(data::PointId id) noexcept;

  std::uint32_t alloc_slot(std::span<const double> c, data::PointId id);
  /// Threads `slot` onto the tail of `guard`'s dominee list.
  void park(std::uint32_t slot, std::uint32_t guard) noexcept;
  /// Unthreads parked `slot` from its guard's list (O(1)).
  void detach(std::uint32_t slot) noexcept;
  /// Splices member `member`'s whole dominee list, then `member` itself,
  /// onto `guard`'s list (O(1)).
  void demote(std::uint32_t member, std::uint32_t guard) noexcept;
  /// Runs the insertion logic on an existing slot: park it under the first
  /// skyline dominator, or make it a skyline member, demoting (and absorbing
  /// the dominee lists of) every member it dominates. Returns true iff the
  /// slot ended on the skyline.
  bool raise(std::uint32_t slot);

  std::size_t dim_;
  std::vector<double> coords_;          ///< slot-major coordinates
  std::vector<data::PointId> ids_;      ///< per slot
  std::vector<std::uint32_t> next_;     ///< per slot: intrusive list links
  std::vector<std::uint32_t> prev_;
  std::vector<std::uint8_t> member_;    ///< per slot: 1 iff a skyline member
  std::vector<std::uint32_t> free_slots_;
  TiledWindow members_;                 ///< members in scan order, payload = slot
  std::vector<std::uint32_t> drops_;    ///< compact() scratch, one mask per tile
  std::vector<IndexEntry> index_;       ///< id → slot, power-of-two capacity
  unsigned index_shift_ = 0;            ///< 64 − log2(index_.size())
  std::size_t live_ = 0;
  SkylineStats stats_;
  std::uint64_t promotions_ = 0;
};

}  // namespace mrsky::skyline
