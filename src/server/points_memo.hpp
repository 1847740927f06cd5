// The rendered points arrays of a server's recent answers (DESIGN.md
// decision 22).
//
// A skyline is tiny next to its input and rarely changes between writes, yet
// every read used to print all of its coordinates again at 17 significant
// digits. PointsMemo keeps, per query signature (service::query_signature),
// the last points array it rendered: the answer's ids and coordinate bits and
// its `[[id,c,...],...]` text. The next answer to the same query whose ids
// and bits are equal (one memcmp each) gets that text back; any other answer
// is rendered afresh and replaces the entry.
//
// Reuse is decided by content, not by snapshot version. Most writes leave
// the skyline's bytes unchanged, and a version key would render again at the
// first read after every one of them. Comparing bits, not values, keeps the
// wire exact: +0.0 and -0.0 compare equal as doubles but print as `0` and
// `-0`.
//
// One memo serves every session of a server. Entries are immutable and
// shared; the map has its own mutex, and the compare and any render run
// outside it. The entries hold at most kBudgetBytes, the least recently used
// going first, and an answer larger than the budget is rendered and served
// but not kept.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "src/dataset/point_set.hpp"

namespace mrsky::server {

class PointsMemo {
 public:
  /// Bytes the entries may hold: a constant, not an option. A skyline-sized
  /// answer (a few hundred points) takes about 30 KB.
  static constexpr std::size_t kBudgetBytes = std::size_t{4} << 20;

  /// The `[[id,c,...],...]` text of `points`: the stored text when the last
  /// answer rendered for `signature` has the same dim, ids and coordinate
  /// bits in the same order, else a fresh render (points_text) that replaces
  /// the entry. The returned text stays valid after the entry is evicted.
  /// Safe to call from any number of threads.
  [[nodiscard]] std::shared_ptr<const std::string> text(const std::string& signature,
                                                        const data::PointSet& points);

  /// Bytes the entries account for (never above kBudgetBytes).
  [[nodiscard]] std::size_t bytes() const;

  /// Signatures with an entry.
  [[nodiscard]] std::size_t entries() const;

 private:
  /// One rendered answer: what it was rendered from and its text.
  struct Entry {
    data::PointSet points;
    std::string text;
    std::size_t bytes = 0;  ///< signature, ids, coordinates and text
  };
  struct Node {
    std::string signature;
    std::shared_ptr<const Entry> entry;
  };

  /// Makes `entry` the one for `signature`, or drops the old one when
  /// `entry` exceeds the budget; evicts from the cold end to fit.
  void store(const std::string& signature, std::shared_ptr<const Entry> entry);

  mutable std::mutex mutex_;
  std::list<Node> lru_;  ///< most recently used first
  std::unordered_map<std::string, std::list<Node>::iterator> index_;
  std::size_t bytes_ = 0;
};

}  // namespace mrsky::server
