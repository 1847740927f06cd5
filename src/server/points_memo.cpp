#include "src/server/points_memo.hpp"

#include <cstring>
#include <utility>

#include "src/server/protocol.hpp"

namespace mrsky::server {

namespace {

/// Same dim, ids and coordinate bits, in the same order.
bool same_bits(const data::PointSet& a, const data::PointSet& b) {
  if (a.dim() != b.dim() || a.size() != b.size()) return false;
  if (a.empty()) return true;  // memcmp must not see the null data of an empty set
  return std::memcmp(a.ids().data(), b.ids().data(), a.ids().size_bytes()) == 0 &&
         std::memcmp(a.raw().data(), b.raw().data(), a.raw().size_bytes()) == 0;
}

}  // namespace

std::shared_ptr<const std::string> PointsMemo::text(const std::string& signature,
                                                    const data::PointSet& points) {
  std::shared_ptr<const Entry> last;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = index_.find(signature); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      last = it->second->entry;
    }
  }
  if (last == nullptr || !same_bits(last->points, points)) {
    std::string rendered = points_text(points);
    const std::size_t bytes = signature.size() + points.ids().size_bytes() +
                              points.raw().size_bytes() + rendered.size();
    last = std::make_shared<const Entry>(Entry{points, std::move(rendered), bytes});
    store(signature, last);
  }
  // Aliasing: the caller holds the entry alive through its text.
  return {last, &last->text};
}

void PointsMemo::store(const std::string& signature, std::shared_ptr<const Entry> entry) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (auto it = index_.find(signature); it != index_.end()) {
    bytes_ -= it->second->entry->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }
  if (entry->bytes > kBudgetBytes) return;
  bytes_ += entry->bytes;
  lru_.push_front(Node{signature, std::move(entry)});
  index_.emplace(signature, lru_.begin());
  while (bytes_ > kBudgetBytes) {
    bytes_ -= lru_.back().entry->bytes;
    index_.erase(lru_.back().signature);
    lru_.pop_back();
  }
}

std::size_t PointsMemo::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::size_t PointsMemo::entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return index_.size();
}

}  // namespace mrsky::server
