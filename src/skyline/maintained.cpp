#include "src/skyline/maintained.hpp"

#include <algorithm>

#include "src/common/error.hpp"

namespace mrsky::skyline {

MaintainedSkyline::MaintainedSkyline(std::size_t dim) : dim_(dim) {
  if (dim_ == 0) throw InvalidArgument("MaintainedSkyline: dim must be >= 1");
}

MaintainedSkyline::MaintainedSkyline(const data::PointSet& ps) : MaintainedSkyline(ps.dim()) {
  for (std::size_t i = 0; i < ps.size(); ++i) {
    insert(ps.point(i), ps.id(i));
  }
}

std::uint32_t MaintainedSkyline::alloc_slot(std::span<const double> c, data::PointId id) {
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

void MaintainedSkyline::release_slot(std::uint32_t slot) {
  index_.erase(nodes_[slot].id);
  dominees_[slot].clear();
  nodes_[slot].skyline = false;
  nodes_[slot].guard = kNoSlot;
  free_slots_.push_back(slot);
}

void MaintainedSkyline::attach(std::uint32_t slot, std::uint32_t guard) {
  nodes_[slot].guard = guard;
  nodes_[slot].guard_pos = static_cast<std::uint32_t>(dominees_[guard].size());
  nodes_[slot].skyline = false;
  dominees_[guard].push_back(slot);
}

void MaintainedSkyline::detach(std::uint32_t slot) {
  const std::uint32_t guard = nodes_[slot].guard;
  auto& list = dominees_[guard];
  const std::uint32_t pos = nodes_[slot].guard_pos;
  list[pos] = list.back();
  nodes_[list[pos]].guard_pos = pos;
  list.pop_back();
  nodes_[slot].guard = kNoSlot;
}

bool MaintainedSkyline::raise(std::uint32_t slot) {
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

bool MaintainedSkyline::insert(std::span<const double> c, data::PointId id) {
  if (c.size() != dim_) throw InvalidArgument("MaintainedSkyline::insert: dimension mismatch");
  if (index_.count(id) != 0) throw InvalidArgument("MaintainedSkyline::insert: duplicate id");
  ++stats_.points_in;
  const std::uint32_t slot = alloc_slot(c, id);
  const bool entered = raise(slot);
  stats_.points_out = skyline_slots_.size();
  return entered;
}

MaintainedSkyline::EraseResult MaintainedSkyline::erase(data::PointId id) {
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

bool MaintainedSkyline::on_skyline(data::PointId id) const {
  const auto it = index_.find(id);
  return it != index_.end() && nodes_[it->second].skyline;
}

data::PointSet MaintainedSkyline::skyline_points() const {
  std::vector<std::uint32_t> slots = skyline_slots_;
  std::sort(slots.begin(), slots.end(),
            [this](std::uint32_t a, std::uint32_t b) { return nodes_[a].id < nodes_[b].id; });
  data::PointSet out(dim_);
  out.reserve(slots.size());
  for (std::uint32_t slot : slots) out.push_back(coords(slot), nodes_[slot].id);
  return out;
}

std::vector<data::PointId> MaintainedSkyline::skyline_ids() const {
  std::vector<data::PointId> ids;
  ids.reserve(skyline_slots_.size());
  for (std::uint32_t slot : skyline_slots_) ids.push_back(nodes_[slot].id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace mrsky::skyline
