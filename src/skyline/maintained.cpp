#include "src/skyline/maintained.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "src/common/error.hpp"
#include "src/skyline/algorithms.hpp"

namespace mrsky::skyline {

namespace {

std::size_t checked_dim(std::size_t dim) {
  if (dim == 0) throw InvalidArgument("MaintainedSkyline: dim must be >= 1");
  return dim;
}

}  // namespace

MaintainedSkyline::MaintainedSkyline(std::size_t dim) : dim_(checked_dim(dim)), members_(dim_) {
  reset_index(0);
}

MaintainedSkyline::MaintainedSkyline(const data::PointSet& ps)
    : MaintainedSkyline(ps, bnl_skyline(ps).ids()) {}

MaintainedSkyline::MaintainedSkyline(const data::PointSet& ps,
                                     std::span<const data::PointId> skyline_ids)
    : MaintainedSkyline(ps.dim()) {
  const std::size_t n = ps.size();
  MRSKY_REQUIRE(n < kNoSlot, "MaintainedSkyline holds fewer than 2^32 - 1 points");
  reset_index(n);
  for (std::uint32_t slot = 0; slot < n; ++slot) {
    if (!index_insert(ps.id(slot), slot)) {
      throw InvalidArgument("MaintainedSkyline: duplicate id " + std::to_string(ps.id(slot)));
    }
  }
  coords_.assign(ps.raw().begin(), ps.raw().end());
  ids_.assign(ps.ids().begin(), ps.ids().end());
  next_.resize(n);
  prev_.resize(n);
  member_.assign(n, 0);
  stats_.points_in = n;

  // F's rows load in ascending coordinate sum (stable; NaN sums last): a
  // row's dominators have smaller sums, so the members that guard the most
  // rows lead the scan, for this load and every later write.
  std::vector<std::uint8_t> placed(n, 0);
  std::vector<std::pair<double, std::uint32_t>> first;
  for (const data::PointId id : skyline_ids) {
    const std::uint32_t slot = find(id);
    if (slot == kNoSlot || placed[slot] != 0) continue;
    placed[slot] = 1;
    const std::span<const double> c = coords(slot);
    const double sum = std::accumulate(c.begin(), c.end(), 0.0);
    first.emplace_back(std::isnan(sum) ? std::numeric_limits<double>::infinity() : sum, slot);
  }
  std::stable_sort(first.begin(), first.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (const auto& [sum, slot] : first) raise(slot);
  for (std::uint32_t slot = 0; slot < n; ++slot) {
    if (placed[slot] == 0) raise(slot);
  }
  stats_.points_out = members_.size();
}

std::size_t MaintainedSkyline::home(data::PointId id) const noexcept {
  // Fibonacci hashing: the top bits of a multiply spread consecutive ids.
  return static_cast<std::size_t>((std::uint64_t{id} * 0x9E3779B97F4A7C15ull) >> index_shift_);
}

std::uint32_t MaintainedSkyline::find(data::PointId id) const noexcept {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = home(id);; i = (i + 1) & mask) {
    const IndexEntry& e = index_[i];
    if (e.slot == kNoSlot) return kNoSlot;
    if (e.id == id) return e.slot;
  }
}

void MaintainedSkyline::reset_index(std::size_t rows) {
  const std::size_t capacity = std::bit_ceil(std::max<std::size_t>(16, 2 * rows));
  index_.assign(capacity, IndexEntry{});
  index_shift_ = 64u - static_cast<unsigned>(std::countr_zero(capacity));
  live_ = 0;
}

bool MaintainedSkyline::index_insert(data::PointId id, std::uint32_t slot) {
  if (2 * (live_ + 1) > index_.size()) {
    std::vector<IndexEntry> old = std::move(index_);
    reset_index(old.size());  // doubles: old.size() rows fit at most half full
    for (const IndexEntry& e : old) {
      if (e.slot != kNoSlot) index_insert(e.id, e.slot);
    }
  }
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(id);
  for (; index_[i].slot != kNoSlot; i = (i + 1) & mask) {
    if (index_[i].id == id) return false;
  }
  index_[i] = IndexEntry{id, slot};
  ++live_;
  return true;
}

std::uint32_t MaintainedSkyline::index_take(data::PointId id) noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = home(id);
  while (index_[hole].slot != kNoSlot && index_[hole].id != id) hole = (hole + 1) & mask;
  const std::uint32_t slot = index_[hole].slot;
  if (slot == kNoSlot) return kNoSlot;
  // Backward shift: an entry later in the run moves into the hole unless its
  // home lies cyclically after the hole (then the hole is not on its probe
  // path). Leaves no tombstone.
  for (std::size_t j = (hole + 1) & mask; index_[j].slot != kNoSlot; j = (j + 1) & mask) {
    if (((j - home(index_[j].id)) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = IndexEntry{};
  --live_;
  return slot;
}

std::uint32_t MaintainedSkyline::alloc_slot(std::span<const double> c, data::PointId id) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
    std::copy(c.begin(), c.end(), coords_.begin() + static_cast<std::ptrdiff_t>(slot * dim_));
    ids_[slot] = id;
  } else {
    MRSKY_REQUIRE(ids_.size() + 1 < kNoSlot, "MaintainedSkyline holds fewer than 2^32 - 1 points");
    slot = static_cast<std::uint32_t>(ids_.size());
    coords_.insert(coords_.end(), c.begin(), c.end());
    ids_.push_back(id);
    next_.push_back(kNoSlot);
    prev_.push_back(kNoSlot);
    member_.push_back(0);
  }
  index_insert(id, slot);
  return slot;
}

void MaintainedSkyline::park(std::uint32_t slot, std::uint32_t guard) noexcept {
  const std::uint32_t tail = prev_[guard];
  next_[tail] = slot;
  prev_[slot] = tail;
  next_[slot] = guard;
  prev_[guard] = slot;
}

void MaintainedSkyline::detach(std::uint32_t slot) noexcept {
  next_[prev_[slot]] = next_[slot];
  prev_[next_[slot]] = prev_[slot];
}

void MaintainedSkyline::demote(std::uint32_t member, std::uint32_t guard) noexcept {
  if (next_[member] != member) {
    const std::uint32_t first = next_[member];
    const std::uint32_t last = prev_[member];
    const std::uint32_t tail = prev_[guard];
    next_[tail] = first;
    prev_[first] = tail;
    next_[last] = guard;
    prev_[guard] = last;
  }
  member_[member] = 0;
  park(member, guard);
}

bool MaintainedSkyline::raise(std::uint32_t slot) {
  const std::span<const double> p = coords(slot);

  // Pass 1: park under the first current skyline member that dominates us.
  // Ties (duplicate coordinates) do not dominate either way, so duplicates
  // coexist on the skyline — matching naive_skyline/bnl_skyline semantics.
  const std::size_t guard = first_dominator(members_, p, stats_);
  if (guard < members_.size()) {
    park(slot, static_cast<std::uint32_t>(members_.payload(guard)));
    return false;
  }
  // No dominator after testing every member; pass 2 tests each once more.
  stats_.dominance_tests += members_.size();

  // Pass 2: we join the skyline. Demote every member we dominate under us,
  // and absorb their dominee lists wholesale: p ≤ member everywhere (strict
  // somewhere) and member ≤ dominee everywhere gives p ≤ dominee everywhere
  // with strictness inherited from p < member's witness attribute.
  next_[slot] = slot;
  prev_[slot] = slot;
  member_[slot] = 1;
  const std::size_t tiles = members_.tiles();
  drops_.assign(tiles, 0);
  bool any_drop = false;
  for (std::size_t t = 0; t < tiles; ++t) {
    const TileMasks m = compare_block(p.data(), members_.tile_data(t), dim_);
    const std::uint32_t dominated = m.lt & ~m.gt & members_.valid_mask(t);
    for (std::uint32_t bits = dominated; bits != 0; bits &= bits - 1) {
      const auto lane = static_cast<std::size_t>(std::countr_zero(bits));
      demote(static_cast<std::uint32_t>(members_.payload(t * kTileWidth + lane)), slot);
    }
    drops_[t] = dominated;
    any_drop |= dominated != 0;
  }
  if (any_drop) members_.compact(drops_);
  members_.push_back(p, slot);
  return true;
}

bool MaintainedSkyline::insert(std::span<const double> c, data::PointId id) {
  if (c.size() != dim_) throw InvalidArgument("MaintainedSkyline::insert: dimension mismatch");
  if (contains(id)) throw InvalidArgument("MaintainedSkyline::insert: duplicate id");
  ++stats_.points_in;
  const std::uint32_t slot = alloc_slot(c, id);
  const bool entered = raise(slot);
  stats_.points_out = members_.size();
  return entered;
}

MaintainedSkyline::EraseResult MaintainedSkyline::erase(data::PointId id) {
  EraseResult result;
  const std::uint32_t slot = index_take(id);
  if (slot == kNoSlot) return result;
  result.erased = true;
  free_slots_.push_back(slot);

  if (member_[slot] == 0) {
    detach(slot);
    stats_.points_out = members_.size();
    return result;
  }

  result.was_skyline = true;
  member_[slot] = 0;
  const std::span<const std::size_t> lanes = members_.payloads();
  const auto lane =
      static_cast<std::size_t>(std::find(lanes.begin(), lanes.end(), slot) - lanes.begin());
  drops_.assign(members_.tiles(), 0);
  drops_[lane / kTileWidth] = std::uint32_t{1} << (lane % kTileWidth);
  members_.compact(drops_);

  // The erased member's exclusive dominees are the only points that can
  // change status. Its slot is free already, so it cannot act as a
  // dominator; raise candidates in ascending-id order: the order cannot
  // change the resulting skyline (a candidate dominated by a sibling is
  // absorbed when that sibling raises, whichever goes first), but fixing it
  // makes guard assignment — and therefore the counters — deterministic.
  std::vector<std::uint32_t> candidates;
  for (std::uint32_t s = next_[slot]; s != slot; s = next_[s]) candidates.push_back(s);
  std::sort(candidates.begin(), candidates.end(),
            [this](std::uint32_t a, std::uint32_t b) { return ids_[a] < ids_[b]; });
  for (std::uint32_t cand : candidates) raise(cand);
  for (std::uint32_t cand : candidates) {
    if (member_[cand] != 0) {
      result.promoted.push_back(ids_[cand]);
      ++promotions_;
    }
  }
  stats_.points_out = members_.size();
  return result;
}

bool MaintainedSkyline::on_skyline(data::PointId id) const {
  const std::uint32_t slot = find(id);
  return slot != kNoSlot && member_[slot] != 0;
}

data::PointSet MaintainedSkyline::skyline_points() const {
  const std::span<const std::size_t> lanes = members_.payloads();
  std::vector<std::uint32_t> slots(lanes.begin(), lanes.end());
  std::sort(slots.begin(), slots.end(),
            [this](std::uint32_t a, std::uint32_t b) { return ids_[a] < ids_[b]; });
  data::PointSet out(dim_);
  out.reserve(slots.size());
  for (std::uint32_t slot : slots) out.push_back(coords(slot), ids_[slot]);
  return out;
}

std::vector<data::PointId> MaintainedSkyline::skyline_ids() const {
  std::vector<data::PointId> ids;
  ids.reserve(members_.size());
  for (std::size_t slot : members_.payloads()) ids.push_back(ids_[slot]);
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace mrsky::skyline
