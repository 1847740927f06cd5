// Sliding-window skyline — continuous monitoring over a data stream.
//
// The paper's §I motivates dynamism twice: services come and go, and QoS
// measurements go stale ("the QoS of selected service may get degraded
// rapidly"). The natural continuous-query formulation keeps the skyline of
// the most recent W measurements (Lin et al., "Stabbing the sky", ICDE'05) —
// either the last `capacity` points (count window) or every point stamped
// within the last `span` ticks (time window).
//
// Implementation: a FIFO of the live window plus a cached skyline.
//  * Appending a point that is dominated by the cached skyline cannot change
//    it (beyond its own insertion check) — O(|SKY|).
//  * Evicting a non-skyline point never changes the skyline (removing a
//    dominated point resurrects nothing).
//  * Evicting a skyline member invalidates the cache; it is rebuilt lazily
//    from the window on the next query — the expensive case, amortised by
//    how rarely the oldest point is still on the skyline.
//
// The per-push probes of the cached skyline run on the tiled kernel
// (dominance_block.hpp), mirrored into a TiledWindow alongside the PointSet
// cache, but charge stats().dominance_tests exactly as the scalar loops they
// replaced (algorithms.cpp convention): pairs up to and including the first
// dominator in the dominated-check, all pairs in the keep-scan, and the full
// would-be scan when the corner prefilter answers without touching tiles —
// so fixed-seed golden counts are identical on the portable and AVX2 paths.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

#include "src/dataset/point_set.hpp"
#include "src/skyline/dominance.hpp"
#include "src/skyline/dominance_block.hpp"

namespace mrsky::skyline {

/// What bounds the window: the newest `capacity` points, or every point
/// stamped within the trailing `span` ticks.
enum class WindowPolicy { kCount, kTime };

class SlidingWindowSkyline {
 public:
  /// Count window of the most recent `capacity` points (>= 1) of dimension
  /// `dim`.
  SlidingWindowSkyline(std::size_t dim, std::size_t capacity);

  /// Time window: keeps points with stamps in (now - span, now], where `now`
  /// is the largest tick seen by push/advance. Feed it with the stamped
  /// push(coords, id, tick) overload; ticks must be non-decreasing.
  static SlidingWindowSkyline by_time(std::size_t dim, std::uint64_t span_ticks);

  /// Appends a measurement. Count window: evicts the oldest when full. Time
  /// window: stamps the point with the current tick (no time passes).
  void push(std::span<const double> coords, data::PointId id);

  /// Time-window append: advances the clock to `tick` (expiring old points),
  /// then inserts the point stamped `tick`. Requires a time window and a
  /// tick >= the current one.
  void push(std::span<const double> coords, data::PointId id, std::uint64_t tick);

  /// Time-window clock advance without an insert: expires every point whose
  /// stamp has fallen out of (tick - span, tick].
  void advance(std::uint64_t tick);

  /// Skyline of the current window (lazily recomputed when dirty).
  [[nodiscard]] const data::PointSet& skyline();

  [[nodiscard]] WindowPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] std::size_t size() const noexcept { return window_.size(); }
  /// Count windows only (0 for time windows).
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  /// Time windows only (0 for count windows).
  [[nodiscard]] std::uint64_t span_ticks() const noexcept { return span_; }
  /// Largest tick seen (time windows; 0 before the first stamped push).
  [[nodiscard]] std::uint64_t tick() const noexcept { return tick_; }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// Cache rebuilds triggered by evicting a skyline member (observability
  /// for the amortisation claim above).
  [[nodiscard]] std::size_t rebuilds() const noexcept { return rebuilds_; }
  [[nodiscard]] const SkylineStats& stats() const noexcept { return stats_; }

 private:
  struct Entry {
    data::PointId id;
    std::uint64_t stamp;
    std::vector<double> coords;
  };

  SlidingWindowSkyline(std::size_t dim, std::size_t capacity, std::uint64_t span,
                       WindowPolicy policy);

  /// Marks the cache dirty iff `victim` is a cached skyline member.
  void note_eviction(data::PointId victim);
  /// Expires time-window entries with stamp <= tick - span.
  void expire(std::uint64_t tick);
  /// Folds a surviving push into the cached skyline via the tiled kernel.
  void fold_insert(std::span<const double> coords, data::PointId id);
  void rebuild();
  void rebuild_tiles();

  std::size_t dim_;
  std::size_t capacity_;
  std::uint64_t span_;
  WindowPolicy policy_;
  std::uint64_t tick_ = 0;
  std::deque<Entry> window_;
  data::PointSet cache_;
  TiledWindow tiles_;  ///< mirrors cache_ row-for-row for the kernel probes
  bool dirty_ = false;
  std::size_t rebuilds_ = 0;
  SkylineStats stats_;
};

}  // namespace mrsky::skyline
