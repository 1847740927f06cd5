#include "reference.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace perfbench {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void mix_bytes(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ bytes[i]) * kFnvPrime;
}

void mix_point(std::uint64_t& h, PointId id, std::span<const double> coords) {
  mix_bytes(h, &id, sizeof id);
  for (const double c : coords) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &c, sizeof bits);
    mix_bytes(h, &bits, sizeof bits);
  }
}

bool dominates(std::span<const double> a, std::span<const double> b) {
  bool strictly = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    strictly = strictly || a[i] < b[i];
  }
  return strictly;
}

}  // namespace

std::uint64_t canonical_digest(const PointSet& ps) {
  std::vector<std::size_t> order(ps.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ps.id(a) < ps.id(b); });
  std::uint64_t h = kFnvOffset;
  for (const std::size_t i : order) mix_point(h, ps.id(i), ps.point(i));
  return h;
}

std::uint64_t canonical_digest(const std::map<PointId, std::vector<double>>& points) {
  std::uint64_t h = kFnvOffset;
  for (const auto& [id, coords] : points) mix_point(h, id, coords);
  return h;
}

std::uint64_t text_digest(std::string_view text) {
  std::uint64_t h = kFnvOffset;
  mix_bytes(h, text.data(), text.size());
  return h;
}

PointSet reference_skyline(const PointSet& ps) {
  std::vector<double> sums(ps.size(), 0.0);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    for (const double c : ps.point(i)) sums[i] += c;
  }
  std::vector<std::size_t> order(ps.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return sums[a] != sums[b] ? sums[a] < sums[b] : ps.id(a) < ps.id(b);
  });

  std::vector<std::size_t> window;
  for (const std::size_t i : order) {
    const bool dominated = std::any_of(window.begin(), window.end(), [&](std::size_t w) {
      return dominates(ps.point(w), ps.point(i));
    });
    if (!dominated) window.push_back(i);
  }
  std::vector<std::size_t> survivors;
  for (const std::size_t i : window) {
    const bool dominated = std::any_of(window.begin(), window.end(), [&](std::size_t w) {
      return dominates(ps.point(w), ps.point(i));
    });
    if (!dominated) survivors.push_back(i);
  }
  std::sort(survivors.begin(), survivors.end(),
            [&](std::size_t a, std::size_t b) { return ps.id(a) < ps.id(b); });
  return ps.select(survivors);
}

StreamModel::StreamModel(const PointSet& base) : rows_(base.dim()) {
  std::vector<std::size_t> order(base.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return base.id(a) < base.id(b); });
  rows_ = base.select(order);
  alive_.assign(rows_.size(), true);
  live_count_ = rows_.size();
  if (rows_.size() > 0) next_id_ = rows_.id(rows_.size() - 1) + 1;
}

bool StreamModel::erase(PointId id) {
  const auto ids = rows_.ids();
  const auto it = std::lower_bound(ids.begin(), ids.end(), id);
  if (it == ids.end() || *it != id) return false;
  const auto i = static_cast<std::size_t>(it - ids.begin());
  if (!alive_[i]) return false;
  alive_[i] = false;
  --live_count_;
  return true;
}

void StreamModel::apply(const PointSet& inserts, const std::vector<std::int64_t>& ttl_ticks,
                        const std::vector<PointId>& deletes) {
  ++tick_;
  while (!expiries_.empty() && expiries_.begin()->first <= tick_) {
    if (erase(expiries_.begin()->second)) ++expired_;
    expiries_.erase(expiries_.begin());
  }
  for (const PointId id : deletes) ++(erase(id) ? deleted_ : missing_);
  for (std::size_t i = 0; i < inserts.size(); ++i) {
    const PointId id = next_id_++;
    rows_.push_back(inserts.point(i), id);
    alive_.push_back(true);
    ++live_count_;
    const std::int64_t ttl = ttl_ticks.empty() ? 0 : ttl_ticks[i];
    if (ttl > 0) expiries_.emplace(tick_ + static_cast<std::uint64_t>(ttl), id);
  }
}

PointSet StreamModel::live() const {
  std::vector<std::size_t> rows;
  rows.reserve(live_count_);
  for (std::size_t i = 0; i < alive_.size(); ++i) {
    if (alive_[i]) rows.push_back(i);
  }
  return rows_.select(rows);
}

SkylineReplica::SkylineReplica(std::uint64_t version,
                               std::map<PointId, std::vector<double>> points)
    : version_(version), points_(std::move(points)) {}

bool SkylineReplica::apply(std::uint64_t version, const std::vector<PointId>& left,
                           const std::map<PointId, std::vector<double>>& entered) {
  if (version != version_ + 1) return false;
  for (const PointId id : left) {
    if (!points_.contains(id)) return false;
  }
  for (const auto& [id, coords] : entered) {
    if (points_.contains(id) && std::find(left.begin(), left.end(), id) == left.end()) {
      return false;
    }
  }
  for (const PointId id : left) points_.erase(id);
  for (const auto& [id, coords] : entered) points_[id] = coords;
  version_ = version;
  return true;
}

}  // namespace perfbench
