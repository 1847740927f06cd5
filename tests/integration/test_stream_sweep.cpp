// Randomised streaming differential sweep (ISSUE 9): ~200 deterministically
// seeded insert/delete/TTL schedules over all five workload families (the
// four synthetic distributions plus the QWS-like family), each replayed
// through TWO streaming QueryEngines — one configured kSequential, one
// kThreads — and against a recompute-from-scratch oracle. After EVERY tick:
//
//  * the maintained full skyline published by apply_batch must equal the
//    naive skyline of the oracle's live set bitwise (exact delete/TTL/window
//    maintenance, not approximate);
//  * the kSequential and kThreads engines must publish byte-identical
//    skylines and deltas (execution mode can never leak into results);
//  * replaying each delta onto a running replica must reproduce the
//    published skyline, which is the standing-subscription contract.
//
// Every tick also compares the published snapshot's rows — ids and
// coordinate bits, in order — with the oracle's live set, so a rebuild that
// keeps the row count but misplaces a row fails. StreamSweepEdges replays
// schedules aimed at the rebuild's boundaries: deletes of the first and the
// last live id every tick, and a count window smaller than one insert batch.
// StreamSweepShuffled replays StreamSweep's schedules from an initial set
// whose rows are not in id order.
//
// A slice of cases also runs a skyline query at a streamed version, proving
// the pipeline path agrees with the maintained structure.
//
// StreamTopKSweep replays the same schedules through one engine and, after
// every tick, checks the top-k reads that rank the snapshot's skyline
// against top_k_weighted over the oracle's live rows. StreamSubspaceSweep
// does the same for subspace reads, which run the pipeline on the snapshot's
// skyline and the rows tied with it, against the naive skyline of the
// oracle's projected live rows.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <queue>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/trace.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/normalize.hpp"
#include "src/dataset/qws.hpp"
#include "src/dataset/transforms.hpp"
#include "src/service/query_engine.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/extensions.hpp"
#include "tests/support/quarter_grid.hpp"

namespace mrsky {
namespace {

/// The exact bits of a point set (a skyline, or a snapshot's rows), in row
/// order.
struct SkylineBits {
  std::vector<data::PointId> ids;
  std::vector<std::uint64_t> coord_bits;

  explicit SkylineBits(const data::PointSet& sky) {
    for (std::size_t i = 0; i < sky.size(); ++i) {
      ids.push_back(sky.id(i));
      for (double c : sky.point(i)) coord_bits.push_back(std::bit_cast<std::uint64_t>(c));
    }
  }
  bool operator==(const SkylineBits&) const = default;
};

data::PointSet canonical_by_id(const data::PointSet& ps) {
  std::vector<std::size_t> order(ps.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ps.id(a) < ps.id(b); });
  return ps.select(order);
}

/// Recompute-from-scratch oracle. Mirrors apply_batch's documented tick
/// semantics exactly — TTL expiry, explicit deletes, inserts (fresh ids,
/// effective TTL = per-point else engine default), count-window eviction —
/// but knows nothing about skyline maintenance: its skyline is always a full
/// naive recompute of the live set.
class StreamOracle {
 public:
  StreamOracle(const data::PointSet& initial, std::size_t window_capacity,
               std::uint64_t window_ticks)
      : dim_(initial.dim()), window_capacity_(window_capacity), window_ticks_(window_ticks) {
    data::PointId max_id = 0;
    for (std::size_t i = 0; i < initial.size(); ++i) {
      const auto p = initial.point(i);
      live_.emplace(initial.id(i), std::vector<double>(p.begin(), p.end()));
      arrivals_.push_back(initial.id(i));
      max_id = std::max(max_id, initial.id(i));
    }
    next_id_ = initial.size() == 0 ? 0 : max_id + 1;
  }

  void apply(const service::MutationBatch& batch) {
    ++tick_;
    while (!expiries_.empty() && expiries_.top().first <= tick_) {
      live_.erase(expiries_.top().second);
      expiries_.pop();
    }
    for (data::PointId id : batch.deletes) live_.erase(id);
    for (std::size_t i = 0; i < batch.inserts.size(); ++i) {
      const data::PointId id = next_id_++;
      const auto p = batch.inserts.point(i);
      live_.emplace(id, std::vector<double>(p.begin(), p.end()));
      arrivals_.push_back(id);
      const std::int64_t requested = batch.ttl_ticks.empty() ? 0 : batch.ttl_ticks[i];
      const std::uint64_t ttl =
          requested > 0 ? static_cast<std::uint64_t>(requested) : window_ticks_;
      if (ttl > 0) expiries_.emplace(tick_ + ttl, id);
    }
    if (window_capacity_ > 0) {
      std::size_t head = 0;
      while (live_.size() > window_capacity_ && head < arrivals_.size()) {
        live_.erase(arrivals_[head++]);  // stale ids erase as no-ops
      }
      arrivals_.erase(arrivals_.begin(), arrivals_.begin() + static_cast<std::ptrdiff_t>(head));
    }
  }

  [[nodiscard]] data::PointSet skyline() const {
    data::PointSet ps(dim_);
    for (const auto& [id, coords] : live_) ps.push_back(coords, id);  // map: ascending ids
    return canonical_by_id(skyline::naive_skyline(ps));
  }

  /// The live rows, in ascending-id order.
  [[nodiscard]] data::PointSet live() const {
    data::PointSet ps(dim_);
    for (const auto& [id, coords] : live_) ps.push_back(coords, id);
    return ps;
  }

  [[nodiscard]] std::size_t live_size() const { return live_.size(); }

 private:
  std::size_t dim_;
  std::size_t window_capacity_;
  std::uint64_t window_ticks_;
  data::PointId next_id_ = 0;
  std::uint64_t tick_ = 0;
  std::map<data::PointId, std::vector<double>> live_;
  std::vector<data::PointId> arrivals_;
  std::priority_queue<std::pair<std::uint64_t, data::PointId>,
                      std::vector<std::pair<std::uint64_t, data::PointId>>, std::greater<>>
      expiries_;
};

/// A subscriber-side replica: base skyline + delta replay.
class Replica {
 public:
  explicit Replica(const data::PointSet& base) : dim_(base.dim()) {
    for (std::size_t i = 0; i < base.size(); ++i) {
      const auto p = base.point(i);
      points_.emplace(base.id(i), std::vector<double>(p.begin(), p.end()));
    }
  }

  void apply(const service::StreamDelta& delta) {
    for (data::PointId id : delta.left) points_.erase(id);
    for (std::size_t i = 0; i < delta.entered.size(); ++i) {
      const auto p = delta.entered.point(i);
      points_.emplace(delta.entered.id(i), std::vector<double>(p.begin(), p.end()));
    }
  }

  [[nodiscard]] data::PointSet skyline() const {
    data::PointSet ps(dim_);
    for (const auto& [id, coords] : points_) ps.push_back(coords, id);
    return ps;
  }

 private:
  std::size_t dim_;
  std::map<data::PointId, std::vector<double>> points_;
};

constexpr std::size_t kFamilies = 5;  // 4 synthetic distributions + QWS-like

struct StreamCase {
  data::PointSet initial{1};
  std::vector<service::MutationBatch> schedule;
  std::size_t window_capacity = 0;
  std::uint64_t window_ticks = 0;
  std::string description;
};

/// Everything derives from the case index, so a failure names a reproducible
/// case. Family index % 5; every case mixes inserts, deletes (including
/// already-dead ids — the missing-delete path), per-point TTLs, and one in
/// two cases adds a count or time window.
StreamCase make_case(std::uint64_t index) {
  common::Rng rng(index * 0x9e3779b9ull + 0x517e40ull);
  StreamCase c;

  const std::size_t n = 30 + rng.uniform_index(120);
  const std::size_t dim = 2 + rng.uniform_index(4);
  const std::size_t ticks = 10 + rng.uniform_index(10);
  const std::size_t family = index % kFamilies;
  const std::size_t pool_n = n + ticks * 6;

  data::PointSet pool(dim);
  std::string family_name;
  if (family < 4) {
    const auto dist = static_cast<data::Distribution>(family);
    pool = data::generate(dist, pool_n, dim, /*seed=*/index + 1);
    family_name = data::to_string(dist);
  } else {
    data::QwsLikeGenerator gen(dim, /*seed=*/index + 1);
    pool = data::normalize_min_max(gen.generate_oriented(pool_n));
    family_name = "qws-like";
  }

  std::vector<std::size_t> head(n);
  for (std::size_t i = 0; i < n; ++i) head[i] = i;
  c.initial = pool.select(head);

  switch (rng.uniform_index(4)) {
    case 2:
      c.window_capacity = std::max<std::size_t>(8, n / 2);
      break;
    case 3:
      c.window_ticks = 3 + rng.uniform_index(5);
      break;
    default:
      break;  // unbounded
  }

  std::size_t next_row = n;
  std::size_t assigned = n;
  c.schedule.resize(ticks);
  for (std::size_t t = 0; t < ticks; ++t) {
    service::MutationBatch& batch = c.schedule[t];
    batch.inserts = data::PointSet(dim);
    const std::size_t inserts = rng.uniform_index(7);  // 0..6
    for (std::size_t i = 0; i < inserts; ++i, ++next_row) {
      batch.inserts.push_back(pool.point(next_row), pool.id(next_row));
      batch.ttl_ticks.push_back(rng.uniform() < 0.3
                                    ? static_cast<std::int64_t>(1 + rng.uniform_index(6))
                                    : 0);
    }
    const std::size_t deletes = rng.uniform_index(5);  // 0..4, may hit dead ids
    for (std::size_t i = 0; i < deletes; ++i) {
      batch.deletes.push_back(static_cast<data::PointId>(rng.uniform_index(assigned)));
    }
    assigned += inserts;
  }

  c.description = family_name + " n=" + std::to_string(n) + " d=" + std::to_string(dim) +
                  " ticks=" + std::to_string(ticks) +
                  (c.window_capacity > 0 ? " cap=" + std::to_string(c.window_capacity) : "") +
                  (c.window_ticks > 0 ? " span=" + std::to_string(c.window_ticks) : "");
  return c;
}

/// Schedules aimed at apply_batch's snapshot rebuild, plus what they
/// exercised. Every tick deletes the first and the last id of the previous
/// snapshot; a builder-side oracle picks them, so the schedule stays static.
/// Variant index % 4:
///  0: a count window of 3 under five inserts a tick, so rows leave in the
///     tick they arrive;
///  1: unbounded, 0..6 inserts a tick;
///  2: a time window and per-point TTLs;
///  3: unbounded, and every fourth tick deletes the whole live set.
struct EdgeCase {
  StreamCase stream;
  std::size_t boundary_deletes = 0;     ///< first/last live ids deleted
  std::size_t same_tick_evictions = 0;  ///< rows gone by the end of their own tick
};

EdgeCase make_edge_case(std::uint64_t index) {
  common::Rng rng(index * 0x2545f491ull + 0xed6eull);
  EdgeCase e;
  StreamCase& c = e.stream;
  const std::size_t variant = index % 4;
  const std::size_t n = 12 + rng.uniform_index(20);
  const std::size_t dim = 2 + rng.uniform_index(3);
  constexpr std::size_t kTicks = 12;
  const auto dist = static_cast<data::Distribution>((index / 4) % 4);
  const data::PointSet pool = data::generate(dist, n + kTicks * 6, dim, /*seed=*/index + 101);

  std::vector<std::size_t> head(n);
  for (std::size_t i = 0; i < n; ++i) head[i] = i;
  c.initial = pool.select(head);  // ids 0..n-1
  if (variant == 0) c.window_capacity = 3;
  if (variant == 2) c.window_ticks = 2 + rng.uniform_index(3);

  StreamOracle oracle(c.initial, c.window_capacity, c.window_ticks);
  std::size_t next_row = n;
  data::PointId next_id = static_cast<data::PointId>(n);
  for (std::size_t t = 0; t < kTicks; ++t) {
    service::MutationBatch batch;
    batch.inserts = data::PointSet(dim);
    const data::PointSet live = oracle.live();
    if (variant == 3 && t % 4 == 1) {
      batch.deletes.assign(live.ids().begin(), live.ids().end());
    } else if (!live.empty()) {
      batch.deletes.push_back(live.id(0));
      if (live.size() > 1) batch.deletes.push_back(live.id(live.size() - 1));
      e.boundary_deletes += batch.deletes.size();
    }
    const std::size_t inserts = variant == 0 ? 5 : rng.uniform_index(7);
    for (std::size_t i = 0; i < inserts; ++i, ++next_row) {
      batch.inserts.push_back(pool.point(next_row), pool.id(next_row));
      batch.ttl_ticks.push_back(variant == 2 && rng.uniform() < 0.3
                                    ? static_cast<std::int64_t>(1 + rng.uniform_index(3))
                                    : 0);
    }
    oracle.apply(batch);
    const data::PointSet after = oracle.live();
    for (std::size_t i = 0; i < inserts; ++i, ++next_id) {
      if (!std::binary_search(after.ids().begin(), after.ids().end(), next_id)) {
        ++e.same_tick_evictions;
      }
    }
    c.schedule.push_back(std::move(batch));
  }

  c.description = "edge variant " + std::to_string(variant) + " " + data::to_string(dist) +
                  " n=" + std::to_string(n) + " d=" + std::to_string(dim) +
                  (c.window_capacity > 0 ? " cap=" + std::to_string(c.window_capacity) : "") +
                  (c.window_ticks > 0 ? " span=" + std::to_string(c.window_ticks) : "");
  return e;
}

class StreamSweep : public testing::TestWithParam<std::uint64_t> {
 protected:
  /// One pool shared by every kThreads engine in the sweep.
  static common::ThreadPool& shared_pool() {
    static common::ThreadPool pool(4);
    return pool;
  }

  /// Replays `c` through a kSequential and a kThreads engine and the oracle,
  /// checking every tick; `run_query` also runs the skyline query path at the
  /// final version.
  static void replay_and_check(const StreamCase& c, bool run_query);
};

TEST_P(StreamSweep, MaintainedSkylineMatchesRecomputeEveryTick) {
  replay_and_check(make_case(GetParam()), GetParam() % 9 == 0);
}

void StreamSweep::replay_and_check(const StreamCase& c, bool run_query) {
  service::QueryEngineOptions seq_options;
  seq_options.window_capacity = c.window_capacity;
  seq_options.window_ticks = c.window_ticks;
  service::QueryEngine seq(c.initial, seq_options);

  service::QueryEngineOptions thr_options = seq_options;
  thr_options.config.run_options.mode = mr::ExecutionMode::kThreads;
  thr_options.config.run_options.pool = &shared_pool();
  service::QueryEngine thr(c.initial, thr_options);

  StreamOracle oracle(c.initial, c.window_capacity, c.window_ticks);

  // The replica starts from a pre-stream subscription: base version 0 plus
  // its full skyline, then one delta per tick.
  const service::StreamSubscriptionPtr sub = seq.subscribe();
  Replica replica(sub->base_skyline());

  for (std::size_t t = 0; t < c.schedule.size(); ++t) {
    const std::string where = c.description + " tick " + std::to_string(t + 1);
    const service::ApplyResult rs = seq.apply_batch(c.schedule[t]);
    const service::ApplyResult rt = thr.apply_batch(c.schedule[t]);
    oracle.apply(c.schedule[t]);

    ASSERT_NE(rs.snapshot->full_skyline, nullptr) << where;
    const data::PointSet& published = *rs.snapshot->full_skyline;

    // Oracle: maintained skyline == naive skyline of the live set, bitwise.
    EXPECT_TRUE(SkylineBits(published) == SkylineBits(oracle.skyline())) << where;
    EXPECT_EQ(rs.snapshot->dataset->size(), oracle.live_size()) << where;

    // The published rows: the oracle's live set, ids and coordinate bits in
    // ascending-id order, from both engines.
    const SkylineBits live(oracle.live());
    EXPECT_TRUE(SkylineBits(*rs.snapshot->dataset) == live) << where;
    EXPECT_TRUE(SkylineBits(*rt.snapshot->dataset) == live) << where;

    // Mode invariance: kSequential and kThreads publish identical bytes.
    EXPECT_TRUE(SkylineBits(published) == SkylineBits(*rt.snapshot->full_skyline)) << where;
    EXPECT_EQ(rs.delta.left, rt.delta.left) << where;
    EXPECT_TRUE(SkylineBits(rs.delta.entered) == SkylineBits(rt.delta.entered)) << where;

    // Subscription contract: the delivered delta replays to the published
    // skyline, and matches the ApplyResult's copy.
    const std::optional<service::StreamDelta> delivered = sub->next(/*timeout_ms=*/0);
    ASSERT_TRUE(delivered.has_value()) << where;
    EXPECT_EQ(delivered->version, rs.delta.version) << where;
    replica.apply(*delivered);
    EXPECT_TRUE(SkylineBits(replica.skyline()) == SkylineBits(published)) << where;
  }

  // A slice also runs the query path at a streamed version: the pipeline must
  // agree with the maintained structure it never consulted.
  if (run_query) {
    const auto result = seq.execute(service::Query{service::SkylineQuery{}});
    EXPECT_TRUE(SkylineBits(result.points) ==
                SkylineBits(*seq.snapshot()->full_skyline))
        << c.description;
  }

  EXPECT_FALSE(sub->lagged()) << c.description;
}

INSTANTIATE_TEST_SUITE_P(Cases, StreamSweep, testing::Range<std::uint64_t>(0, 200),
                         [](const auto& param_info) {
                           return "case" + std::to_string(param_info.param);
                         });

class StreamSweepEdges : public StreamSweep {};

TEST_P(StreamSweepEdges, BoundaryDeletesAndSameTickEvictionsKeepEveryRow) {
  const EdgeCase e = make_edge_case(GetParam());
  // The schedule reaches the boundaries it was built for.
  EXPECT_GT(e.boundary_deletes, 0u) << e.stream.description;
  if (e.stream.window_capacity > 0) {
    EXPECT_GT(e.same_tick_evictions, 0u) << e.stream.description;
  }
  replay_and_check(e.stream, /*run_query=*/true);
}

INSTANTIATE_TEST_SUITE_P(Cases, StreamSweepEdges, testing::Range<std::uint64_t>(0, 32),
                         [](const auto& param_info) {
                           return "case" + std::to_string(param_info.param);
                         });

/// StreamSweep's schedules from a shuffled initial set. The construction
/// snapshot keeps its input's row order, which need not be ascending by id (a
/// z-ordered .mrb, a CSV with an id column), so the first write must put the
/// rows in id order before it copies runs between removed ids. The count
/// window's arrival order is the construction row order, in the engine and
/// in the oracle alike. The shuffle draws from its own Rng, so make_case's
/// schedules are the ones StreamSweep replays.
class StreamSweepShuffled : public StreamSweep {};

TEST_P(StreamSweepShuffled, UnorderedInitialRowsMatchRecomputeEveryTick) {
  StreamCase c = make_case(GetParam());
  common::Rng rng(GetParam() * 0xd1b54a32ull + 0x5bfull);
  std::vector<std::size_t> order(c.initial.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  }
  c.initial = c.initial.select(order);
  ASSERT_FALSE(std::is_sorted(c.initial.ids().begin(), c.initial.ids().end()))
      << c.description;
  c.description += " shuffled";
  replay_and_check(c, /*run_query=*/true);
}

INSTANTIATE_TEST_SUITE_P(Cases, StreamSweepShuffled, testing::Range<std::uint64_t>(0, 24),
                         [](const auto& param_info) {
                           return "case" + std::to_string(param_info.param);
                         });

/// Ids and exact score bits, in ranking order.
std::vector<std::uint64_t> ranking_bits(const std::vector<skyline::ScoredPoint>& ranking) {
  std::vector<std::uint64_t> bits;
  for (const skyline::ScoredPoint& sp : ranking) {
    bits.push_back(sp.id);
    bits.push_back(std::bit_cast<std::uint64_t>(sp.score));
  }
  return bits;
}

/// Top-k from the snapshot: StreamSweep's schedules, every fourth snapped to
/// the quarter grid (duplicate coordinates, and quarter-step weights that tie
/// the scores of distinct points too). After every tick, the engine's top-k
/// for k = 1..12 under seeded weights must equal top_k_weighted over the
/// oracle's live rows bitwise, list ties in ascending-id order, and come from
/// the snapshot's skyline (the query span's `topk_from`), never a scan.
class StreamTopKSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamTopKSweep, TopKRanksTheSnapshotSkylineEveryTick) {
  StreamCase c = make_case(GetParam());
  const bool quarter_grid = GetParam() % 4 == 0;
  if (quarter_grid) {
    c.initial = test::snap_to_quarter_grid(c.initial);
    for (service::MutationBatch& batch : c.schedule) {
      batch.inserts = test::snap_to_quarter_grid(batch.inserts);
    }
    c.description += " quarter-grid";
  }

  common::TraceRecorder trace;
  service::QueryEngineOptions options;
  options.window_capacity = c.window_capacity;
  options.window_ticks = c.window_ticks;
  options.cache_capacity = 0;  // every read ranks; none is a cache hit
  options.trace = &trace;
  service::QueryEngine engine(c.initial, options);
  StreamOracle oracle(c.initial, c.window_capacity, c.window_ticks);

  constexpr std::size_t kMaxK = 12;
  common::Rng rng(GetParam() * 0x2545f491ull + 0x70b4ull);
  for (std::size_t t = 0; t < c.schedule.size(); ++t) {
    const std::string where = c.description + " tick " + std::to_string(t + 1);
    engine.apply_batch(c.schedule[t]);
    oracle.apply(c.schedule[t]);
    const data::PointSet live = oracle.live();

    std::vector<double> weights(live.dim());
    for (double& w : weights) {
      w = quarter_grid ? 0.25 * static_cast<double>(rng.uniform_index(5)) : rng.uniform();
    }
    for (std::size_t k = 1; k <= kMaxK; ++k) {
      const auto got = engine.execute(service::Query{service::TopKWeightedQuery{weights, k}});
      EXPECT_EQ(ranking_bits(got.ranking),
                ranking_bits(skyline::top_k_weighted(live, weights, k)))
          << where << " k=" << k;
      for (std::size_t i = 1; i < got.ranking.size(); ++i) {
        const skyline::ScoredPoint& a = got.ranking[i - 1];
        const skyline::ScoredPoint& b = got.ranking[i];
        EXPECT_TRUE(a.score < b.score || (a.score == b.score && a.id < b.id))
            << where << " k=" << k << " rank " << i;
      }
    }
  }

  std::size_t ranked = 0;
  for (const common::TraceSpan& s : trace.spans()) {
    const common::TraceArg* kind = s.name == "query" ? s.find_arg("kind") : nullptr;
    if (kind == nullptr || kind->value != "top_k_weighted") continue;
    ++ranked;
    const common::TraceArg* from = s.find_arg("topk_from");
    ASSERT_NE(from, nullptr) << c.description;
    EXPECT_EQ(from->value, "snapshot") << c.description;
  }
  EXPECT_EQ(ranked, kMaxK * c.schedule.size()) << c.description;
}

INSTANTIATE_TEST_SUITE_P(Cases, StreamTopKSweep, testing::Range<std::uint64_t>(0, 200),
                         [](const auto& param_info) {
                           return "case" + std::to_string(param_info.param);
                         });

/// Every attribute subset of a `dim`-attribute case in ascending order, then
/// a permuted one ({dim-1, 0}), a repeated one ({1, 1}) and all attributes
/// reversed.
std::vector<std::vector<std::size_t>> subspaces_of(std::size_t dim) {
  std::vector<std::vector<std::size_t>> out;
  for (std::size_t mask = 1; mask < (std::size_t{1} << dim); ++mask) {
    std::vector<std::size_t> attributes;
    for (std::size_t a = 0; a < dim; ++a) {
      if ((mask >> a) & 1U) attributes.push_back(a);
    }
    out.push_back(std::move(attributes));
  }
  out.push_back({dim - 1, 0});
  out.push_back({1, 1});
  std::vector<std::size_t> reversed(dim);
  for (std::size_t a = 0; a < dim; ++a) reversed[a] = dim - 1 - a;
  out.push_back(std::move(reversed));
  return out;
}

/// Subspace reads from the snapshot's skyline: StreamSweep's schedules, every
/// fourth snapped to the quarter grid (rows tied on a subspace with a member
/// of the full skyline they are not in), and the zeros of every third row
/// stored as −0.0. After every tick, every subspace of subspaces_of() must
/// read bitwise equal to the naive skyline of the oracle's projected live
/// rows, in id order, and come from the snapshot's skyline (the query span's
/// `subspace_from`), never every projected row.
class StreamSubspaceSweep : public testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamSubspaceSweep, SubspaceReadsTheSnapshotSkylineEveryTick) {
  StreamCase c = make_case(GetParam());
  const bool quarter_grid = GetParam() % 4 == 0;
  if (quarter_grid) {
    c.initial = test::snap_to_quarter_grid(c.initial);
    for (service::MutationBatch& batch : c.schedule) {
      batch.inserts = test::snap_to_quarter_grid(batch.inserts);
    }
    c.description += " quarter-grid";
  }
  c.initial = test::with_negative_zeros(c.initial);
  for (service::MutationBatch& batch : c.schedule) {
    batch.inserts = test::with_negative_zeros(batch.inserts);
  }

  common::TraceRecorder trace;
  service::QueryEngineOptions options;
  options.window_capacity = c.window_capacity;
  options.window_ticks = c.window_ticks;
  options.cache_capacity = 0;  // every read computes; none is a cache hit
  options.trace = &trace;
  service::QueryEngine engine(c.initial, options);
  StreamOracle oracle(c.initial, c.window_capacity, c.window_ticks);

  const std::vector<std::vector<std::size_t>> subspaces = subspaces_of(c.initial.dim());
  std::size_t tied_rows = 0;  // answer rows outside the full skyline
  for (std::size_t t = 0; t < c.schedule.size(); ++t) {
    const service::ApplyResult applied = engine.apply_batch(c.schedule[t]);
    oracle.apply(c.schedule[t]);
    const data::PointSet live = oracle.live();
    const std::span<const data::PointId> full = applied.snapshot->full_skyline->ids();
    for (const std::vector<std::size_t>& attributes : subspaces) {
      std::string where = c.description + " tick " + std::to_string(t + 1) + " subspace";
      for (const std::size_t a : attributes) {
        where += ' ';
        where += std::to_string(a);
      }
      const auto got = engine.execute(service::Query{service::SubspaceQuery{attributes}});
      EXPECT_TRUE(SkylineBits(got.points) ==
                  SkylineBits(canonical_by_id(
                      skyline::naive_skyline(data::project(live, attributes)))))
          << where;
      for (const data::PointId id : got.points.ids()) {
        if (!std::binary_search(full.begin(), full.end(), id)) ++tied_rows;
      }
    }
  }
  // The tie pass is exercised: on the quarter grid, subspace skylines hold
  // rows the full skyline does not.
  if (quarter_grid) {
    EXPECT_GT(tied_rows, 0U) << c.description;
  }

  std::size_t read = 0;
  for (const common::TraceSpan& s : trace.spans()) {
    const common::TraceArg* kind = s.name == "query" ? s.find_arg("kind") : nullptr;
    if (kind == nullptr || kind->value != "subspace") continue;
    ++read;
    const common::TraceArg* from = s.find_arg("subspace_from");
    ASSERT_NE(from, nullptr) << c.description;
    EXPECT_EQ(from->value, "skyline") << c.description;
  }
  EXPECT_EQ(read, subspaces.size() * c.schedule.size()) << c.description;
}

INSTANTIATE_TEST_SUITE_P(Cases, StreamSubspaceSweep, testing::Range<std::uint64_t>(0, 200),
                         [](const auto& param_info) {
                           return "case" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace mrsky
