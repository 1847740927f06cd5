// The benchmark's own correctness oracles. They share no code with the
// library's skyline kernels or its stream maintenance, so a wrong answer from
// either side shows up as a mismatch instead of agreeing with itself.
#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string_view>
#include <vector>

#include "src/dataset/point_set.hpp"

namespace perfbench {

using mrsky::data::PointId;
using mrsky::data::PointSet;

/// FNV-1a over the set in ascending-id order: each id, then the bit pattern
/// of every coordinate. Equal digests mean bitwise-equal sets, whatever
/// order the producer emitted them in.
[[nodiscard]] std::uint64_t canonical_digest(const PointSet& ps);
/// The same digest of an id-keyed set (a parsed wire payload, a replica).
[[nodiscard]] std::uint64_t canonical_digest(const std::map<PointId, std::vector<double>>& points);

/// FNV-1a over raw bytes (wire payloads compared byte for byte).
[[nodiscard]] std::uint64_t text_digest(std::string_view text);

/// Exact skyline (minimisation in every attribute) by sort-filter: rows in
/// ascending coordinate sum are tested against the window of survivors, and
/// a last window-against-window pass removes any survivor whose dominator
/// tied it on the rounded sum. Returned in ascending-id order.
[[nodiscard]] PointSet reference_skyline(const PointSet& ps);

/// The live rows of a registry, kept without the engine under
/// MutationBatch's documented semantics. Every write is one tick; at the
/// start of tick T the rows whose TTL ran out leave (a row inserted at tick
/// T0 with TTL k leaves at the start of T0 + k), then the explicit deletes
/// (an id that is not live is counted as missing, not an error), then the
/// inserts join under fresh ids above every id seen so far. A TTL <= 0 never
/// expires (the engine's default options have no window).
class StreamModel {
 public:
  /// Starts at tick 0 with `base` (distinct ids, any order).
  explicit StreamModel(const PointSet& base);

  /// Applies one write: `ttl_ticks` is empty or parallel to `inserts`.
  void apply(const PointSet& inserts, const std::vector<std::int64_t>& ttl_ticks,
             const std::vector<PointId>& deletes);

  /// The live rows in ascending-id order.
  [[nodiscard]] PointSet live() const;
  [[nodiscard]] std::size_t live_count() const noexcept { return live_count_; }
  [[nodiscard]] std::uint64_t tick() const noexcept { return tick_; }
  [[nodiscard]] std::uint64_t expired() const noexcept { return expired_; }
  [[nodiscard]] std::uint64_t deleted() const noexcept { return deleted_; }
  [[nodiscard]] std::uint64_t missing() const noexcept { return missing_; }

 private:
  /// Erases `id` if it is live; returns whether it was.
  bool erase(PointId id);

  PointSet rows_;  ///< every row ever live, ascending ids
  std::vector<bool> alive_;
  std::multimap<std::uint64_t, PointId> expiries_;  ///< tick -> id
  PointId next_id_ = 0;
  std::uint64_t tick_ = 0;
  std::size_t live_count_ = 0;
  std::uint64_t expired_ = 0, deleted_ = 0, missing_ = 0;
};

/// A subscriber's copy of the skyline, rebuilt from the base skyline and the
/// deltas pushed after it.
class SkylineReplica {
 public:
  /// Starts from the base skyline at `version`.
  SkylineReplica(std::uint64_t version, std::map<PointId, std::vector<double>> points);

  /// Applies the delta that published `version`: `left` ids leave, then
  /// `entered` rows join. Returns false, and changes nothing, when the
  /// delta skips or repeats a version, removes an id the replica does not
  /// hold, or adds one it already holds.
  bool apply(std::uint64_t version, const std::vector<PointId>& left,
             const std::map<PointId, std::vector<double>>& entered);

  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }
  /// canonical_digest of the replica's current content.
  [[nodiscard]] std::uint64_t digest() const { return canonical_digest(points_); }

 private:
  std::uint64_t version_;
  std::map<PointId, std::vector<double>> points_;
};

}  // namespace perfbench
