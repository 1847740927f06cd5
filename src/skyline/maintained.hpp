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
// Counter policy: stats().dominance_tests counts every pairwise dominates()
// evaluation (scalar semantics, deterministic for a fixed operation
// sequence); promotions() counts dominees that re-entered the skyline when
// their guard was deleted.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "src/dataset/point_set.hpp"
#include "src/skyline/dominance.hpp"

namespace mrsky::skyline {

class MaintainedSkyline {
 public:
  /// Empty structure over `dim`-dimensional points (dim >= 1).
  explicit MaintainedSkyline(std::size_t dim);

  /// Bulk load: inserts every point of `ps` in order — O(n·|SKY|) dominance
  /// tests. Duplicate ids are rejected (the structure is keyed by id).
  explicit MaintainedSkyline(const data::PointSet& ps);

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

}  // namespace mrsky::skyline
