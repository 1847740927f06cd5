#include "src/service/query_engine.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/timer.hpp"
#include "src/dataset/transforms.hpp"
#include "src/partition/factory.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/extensions.hpp"
#include "src/skyline/maintained.hpp"

namespace mrsky::service {

namespace {

/// Ascending-id order: the engine's canonical result form. Stable on id ties
/// (duplicate ids only arise from hand-built datasets), so the output is a
/// pure function of the input set.
data::PointSet canonical_by_id(const data::PointSet& ps) {
  std::vector<std::size_t> order(ps.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return ps.id(a) < ps.id(b); });
  return ps.select(order);
}

/// A memo key: "v{version}" followed by `parts` (integers in decimal). Every
/// part is appended with += — a chain of `"literal" + std::string`
/// temporaries trips GCC 12's -Wrestrict false positive.
template <class... Parts>
std::string memo_key(std::uint64_t version, const Parts&... parts) {
  std::string key = "v";
  key += std::to_string(version);
  const auto append = [&key](const auto& part) {
    if constexpr (std::is_integral_v<std::decay_t<decltype(part)>>) {
      key += std::to_string(part);
    } else {
      key += part;
    }
  };
  (append(parts), ...);
  return key;
}

/// Fit-memo key at `version`: everything that shapes the fit (scheme,
/// partitions, fit sample), then `what` was fitted ("full"; "sub:" and the
/// subspace's attributes for every projected row; "skyline-sub:" and them
/// for the snapshot skyline's subspace candidates).
std::string fit_memo_key(std::uint64_t version, const core::MRSkylineConfig& cfg,
                         const std::string& what) {
  return memo_key(version, "/", part::to_string(cfg.scheme), "/p", cfg.effective_partitions(),
                  "/s", cfg.fit_sample_size, ".", cfg.fit_sample_seed, "/", what);
}

/// A hash of `row`'s values on `attributes` that rows equal there by value
/// share: adding +0.0 turns −0.0 into +0.0 and leaves every other value as
/// it is.
std::uint64_t subspace_hash(const double* row, std::span<const std::size_t> attributes) {
  std::uint64_t h = 0;
  for (const std::size_t a : attributes) {
    h = std::rotl(h, 29) ^ std::bit_cast<std::uint64_t>(row[a] + 0.0);
  }
  return h * 0x9e3779b97f4a7c15ULL;
}

/// True when `sky` (ascending ids) holds row `i` of `rows`: a row with its id
/// and its coordinate bits. The bits matter when a hand-built dataset gives
/// two rows one id.
bool holds_row(const data::PointSet& sky, const data::PointSet& rows, std::size_t i) {
  const std::span<const data::PointId> ids = sky.ids();
  const std::span<const double> row = rows.point(i);
  const auto [first, last] = std::equal_range(ids.begin(), ids.end(), rows.id(i));
  for (auto it = first; it != last; ++it) {
    const std::span<const double> member = sky.point(static_cast<std::size_t>(it - ids.begin()));
    if (std::memcmp(member.data(), row.data(), row.size_bytes()) == 0) return true;
  }
  return false;
}

/// The rows a subspace skyline over `attributes` can hold, given `sky`, the
/// exact full skyline of `rows` in ascending-id order: every member of `sky`,
/// plus every other row equal on the subspace to a member of `sky`'s own
/// subspace skyline — projected, in ascending-id order. A row outside `sky`
/// has a dominator in `sky`, no worse on any attribute of the subspace, so it
/// is on the subspace skyline only when tied with that dominator there, and
/// then the dominator is on it too (DESIGN.md decision 18).
///
/// The tie pass is one sweep over `rows`. Equality is by value, so −0.0 ties
/// +0.0, as under skyline::dominates.
data::PointSet subspace_candidates(const data::PointSet& rows, const data::PointSet& sky,
                                   std::span<const std::size_t> attributes) {
  const std::size_t width = attributes.size();
  const data::PointSet front = data::project(sky, attributes);

  // The distinct points of `sky`'s subspace skyline in an open-addressing
  // table keyed by subspace_hash, at most 1/16 of its slots used: a row whose
  // home slot is empty, nearly every row, ties none of them, and the sweep
  // rules it out without a branch.
  const data::PointSet targets = skyline::bnl_skyline(front);
  std::vector<std::size_t> own(width);  // `targets`' own columns
  std::iota(own.begin(), own.end(), std::size_t{0});
  int bits = 4;
  while ((std::size_t{1} << bits) < 16 * targets.size()) ++bits;
  const int shift = 64 - bits;
  const std::size_t mask = (std::size_t{1} << bits) - 1;
  std::vector<std::uint32_t> table(mask + 1, 0);  // a target + 1; 0 = empty
  const auto tied = [&](const double* row, std::span<const std::size_t> on) {
    for (std::size_t s = subspace_hash(row, on) >> shift; table[s] != 0; s = (s + 1) & mask) {
      const std::size_t t = table[s] - 1;
      std::size_t j = 0;
      while (j < width && targets.at(t, j) == row[on[j]]) ++j;
      if (j == width) return true;
    }
    return false;
  };
  for (std::size_t t = 0; t < targets.size(); ++t) {
    const double* point = targets.point(t).data();
    if (tied(point, own)) continue;  // an equal point is in already
    std::size_t s = subspace_hash(point, own) >> shift;
    while (table[s] != 0) s = (s + 1) & mask;
    table[s] = static_cast<std::uint32_t>(t + 1);
  }

  // `sky` projected, then every tied row it does not hold.
  data::PointSet out = front;
  std::vector<double> projected(width);
  const double* data = rows.raw().data();
  const std::size_t dim = rows.dim();
  constexpr std::size_t kChunk = 256;
  std::array<std::uint32_t, kChunk> home_taken{};
  for (std::size_t base = 0; base < rows.size(); base += kChunk) {
    const std::size_t end = std::min(rows.size(), base + kChunk);
    std::size_t count = 0;
    for (std::size_t i = base; i < end; ++i) {
      home_taken[count] = static_cast<std::uint32_t>(i - base);
      count += table[subspace_hash(data + i * dim, attributes) >> shift] != 0 ? 1 : 0;
    }
    for (std::size_t c = 0; c < count; ++c) {
      const std::size_t i = base + home_taken[c];
      if (!tied(data + i * dim, attributes) || holds_row(sky, rows, i)) continue;
      for (std::size_t j = 0; j < width; ++j) projected[j] = data[i * dim + attributes[j]];
      out.push_back(projected, rows.id(i));
    }
  }
  return canonical_by_id(out);
}

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

}  // namespace

QueryEngine::QueryEngine(data::PointSet dataset, QueryEngineOptions options)
    : options_(std::move(options)) {
  MRSKY_REQUIRE(!dataset.empty(), "QueryEngine needs a non-empty dataset");
  MRSKY_REQUIRE(options_.config.prepared_partitioner == nullptr,
                "QueryEngine owns fit preparation; leave prepared_partitioner null");
  options_.config.validate_or_throw();

  // One persistent worker pool for the engine's lifetime: every kThreads
  // pipeline run reuses it instead of paying thread start-up per query.
  // ThreadPool::parallel_for keeps all of its state per-call, so concurrent
  // sessions can run pipelines on this one pool simultaneously.
  auto& run = options_.config.run_options;
  if (run.mode == mr::ExecutionMode::kThreads && run.pool == nullptr) {
    const std::size_t threads =
        run.num_threads == 0 ? common::ThreadPool::default_concurrency() : run.num_threads;
    pool_ = std::make_unique<common::ThreadPool>(threads);
    run.pool = pool_.get();
  }
  if (options_.trace != nullptr && run.trace == nullptr) run.trace = options_.trace;

  for (data::PointId id : dataset.ids()) next_id_ = std::max(next_id_, id + 1);

  auto snap = std::make_shared<EngineSnapshot>();
  snap->version = 0;
  snap->dataset = std::make_shared<const data::PointSet>(std::move(dataset));
  snapshot_ = std::move(snap);
}

QueryEngine::QueryEngine(const data::DatasetSource& source, QueryEngineOptions options)
    : QueryEngine(source.materialize(), std::move(options)) {}

QueryEngine::~QueryEngine() {
  std::lock_guard<std::mutex> lock(subs_mutex_);
  for (const auto& weak : subs_) {
    if (StreamSubscriptionPtr sub = weak.lock()) sub->close();
  }
}

EngineSnapshotPtr QueryEngine::snapshot() const {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  return snapshot_;
}

void QueryEngine::set_snapshot(EngineSnapshotPtr snap) {
  std::lock_guard<std::mutex> lock(snapshot_mutex_);
  snapshot_ = std::move(snap);
}

QueryEngine::Stats QueryEngine::stats() const {
  Stats out;
  out.queries = counters_.queries.load(std::memory_order_relaxed);
  out.cache_hits = counters_.cache_hits.load(std::memory_order_relaxed);
  out.fits_computed = counters_.fits_computed.load(std::memory_order_relaxed);
  out.fit_reuses = counters_.fit_reuses.load(std::memory_order_relaxed);
  out.pipeline_runs = counters_.pipeline_runs.load(std::memory_order_relaxed);
  out.incremental_serves = counters_.incremental_serves.load(std::memory_order_relaxed);
  out.inserts = counters_.inserts.load(std::memory_order_relaxed);
  out.points_inserted = counters_.points_inserted.load(std::memory_order_relaxed);
  out.cache_evictions = counters_.cache_evictions.load(std::memory_order_relaxed);
  out.queries_cancelled = counters_.queries_cancelled.load(std::memory_order_relaxed);
  out.apply_batches = counters_.apply_batches.load(std::memory_order_relaxed);
  out.points_deleted = counters_.points_deleted.load(std::memory_order_relaxed);
  out.points_expired = counters_.points_expired.load(std::memory_order_relaxed);
  out.deletes_missed = counters_.deletes_missed.load(std::memory_order_relaxed);
  out.stream_entered = counters_.stream_entered.load(std::memory_order_relaxed);
  out.stream_left = counters_.stream_left.load(std::memory_order_relaxed);
  out.deltas_published = counters_.deltas_published.load(std::memory_order_relaxed);
  return out;
}

std::size_t QueryEngine::cache_entries() const {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  return cache_index_.size();
}

std::size_t QueryEngine::fit_entries() const {
  std::lock_guard<std::mutex> lock(fits_mutex_);
  return fits_.size();
}

std::string QueryEngine::cache_key(const Query& query, std::uint64_t version) {
  return query_signature(query) + "|v" + std::to_string(version);
}

bool QueryEngine::cache_find(const std::string& key, CachedPayload& out) {
  std::lock_guard<std::mutex> lock(cache_mutex_);
  auto it = cache_index_.find(key);
  if (it == cache_index_.end()) return false;
  // The recency touch mutates only cache-internal state, under the cache's
  // own mutex — a hit is read-only with respect to every other engine lock.
  lru_.splice(lru_.begin(), lru_, it->second);
  out = it->second->payload;  // copied under the lock: eviction-safe
  return true;
}

void QueryEngine::cache_store(const std::string& key, std::uint64_t version,
                              const CachedPayload& payload) {
  if (options_.cache_capacity == 0) return;
  // A compute that raced with an insert would store an entry no future
  // lookup can reach (keys embed the version); skip it so occupancy tracks
  // live entries. The check is best-effort — a racing insert right after it
  // just leaves one unreachable entry for the LRU to age out.
  if (version != snapshot()->version) return;
  std::lock_guard<std::mutex> lock(cache_mutex_);
  if (auto it = cache_index_.find(key); it != cache_index_.end()) {
    it->second->payload = payload;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(CacheEntry{key, payload});
  cache_index_[key] = lru_.begin();
  while (cache_index_.size() > options_.cache_capacity) {
    cache_index_.erase(lru_.back().key);
    lru_.pop_back();
    counters_.cache_evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

QueryEngine::FitPtr QueryEngine::prepared_fit(const data::PointSet& ps,
                                              const std::string& fit_key, bool& reused) {
  {
    std::lock_guard<std::mutex> lock(fits_mutex_);
    if (auto it = fits_.find(fit_key); it != fits_.end()) {
      reused = true;
      counters_.fit_reuses.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  reused = false;
  counters_.fits_computed.fetch_add(1, std::memory_order_relaxed);
  common::ScopedSpan span(options_.trace, "prepared-fit", "service");
  span.arg("key", fit_key);

  // Fit outside the lock: fitting is the expensive part, and two sessions
  // racing on the same key deterministically produce identical fits (same
  // data, same seed) — the second emplace loses and adopts the winner.
  FitPtr shared{core::fit_partitioner(ps, options_.config, span)};
  std::lock_guard<std::mutex> lock(fits_mutex_);
  return fits_.try_emplace(fit_key, std::move(shared)).first->second;
}

data::PointSet QueryEngine::pipeline_skyline(const data::PointSet& ps,
                                             const std::string& fit_key, QueryResult& result,
                                             const common::CancellationToken& cancel) {
  // Pin the fit for the whole run: a concurrent insert_batch may clear the
  // memo, but this shared_ptr keeps the partitioner alive until the pipeline
  // is done with it (the old `const Partitioner&` into the map dangled here).
  const FitPtr fit = prepared_fit(ps, fit_key, result.metrics.fit_reused);
  core::MRSkylineConfig config = options_.config;
  config.prepared_partitioner = fit.get();
  config.run_options.cancel = cancel;
  counters_.pipeline_runs.fetch_add(1, std::memory_order_relaxed);
  const core::MRSkylineResult run = core::run_mr_skyline(ps, config);
  result.metrics.dominance_tests += run.partition_job.total_work_units();
  for (const auto& round : run.merge_rounds) {
    result.metrics.dominance_tests += round.total_work_units();
  }
  return canonical_by_id(run.skyline);
}

void QueryEngine::publish_full_skyline(const EngineSnapshot& snap, const data::PointSet& sky) {
  std::lock_guard<std::mutex> write_lock(write_mutex_);
  const EngineSnapshotPtr current = snapshot();
  if (current->version != snap.version || current->full_skyline != nullptr) return;
  auto next = std::make_shared<EngineSnapshot>();
  next->version = snap.version;
  next->dataset = current->dataset;
  next->full_skyline = std::make_shared<const data::PointSet>(sky);
  set_snapshot(std::move(next));
}

QueryResult QueryEngine::compute(const EngineSnapshot& snap, const Query& query,
                                 const common::CancellationToken& cancel,
                                 common::ScopedSpan& span) {
  const data::PointSet& dataset = *snap.dataset;
  QueryResult result;
  std::visit(
      Overloaded{
          [&](const SkylineQuery&) {
            if (snap.full_skyline != nullptr) {
              // The pinned snapshot carries a current skyline (maintained by
              // a write or from an earlier pipeline run, with the cache entry
              // evicted or caching off): serve it directly.
              counters_.incremental_serves.fetch_add(1, std::memory_order_relaxed);
              result.points = *snap.full_skyline;
              return;
            }
            result.points = pipeline_skyline(
                dataset, fit_memo_key(snap.version, options_.config, "full"), result, cancel);
            // A query that was cancelled between task-loop polls may still
            // hold a complete skyline; it must NOT ride the snapshot — the
            // caller sees the typed abort, so nothing it produced may be
            // observable (decision 13).
            cancel.throw_if_stopped("full-skyline publication");
            publish_full_skyline(snap, result.points);
          },
          [&](const SubspaceQuery& q) {
            // A snapshot that carries its full skyline runs the pipeline on
            // that skyline and the rows tied with it on the subspace; one
            // without (the construction snapshot before any skyline read)
            // on every projected row. Both give the same bits.
            const bool from_skyline = snap.full_skyline != nullptr;
            const data::PointSet input =
                from_skyline ? subspace_candidates(dataset, *snap.full_skyline, q.attributes)
                             : data::project(dataset, q.attributes);
            span.arg("subspace_from", from_skyline ? "skyline" : "dataset");
            span.arg("candidates", input.size());
            std::string subspace = from_skyline ? "skyline-sub:" : "sub:";
            for (std::size_t i = 0; i < q.attributes.size(); ++i) {
              if (i > 0) subspace += ',';
              subspace += std::to_string(q.attributes[i]);
            }
            result.points = pipeline_skyline(
                input, fit_memo_key(snap.version, options_.config, subspace), result, cancel);
          },
          [&](const KSkybandQuery& q) {
            cancel.throw_if_stopped("k-skyband scan");
            skyline::SkylineStats stats;
            result.points = canonical_by_id(skyline::k_skyband(dataset, q.k, &stats));
            result.metrics.dominance_tests = stats.dominance_tests;
          },
          [&](const RepresentativeQuery& q) {
            cancel.throw_if_stopped("representative scan");
            // Pick order is meaningful (aligned with coverage): no id sort.
            skyline::RepresentativeResult rep = skyline::representative_skyline(dataset, q.k);
            result.points = std::move(rep.representatives);
            result.coverage = std::move(rep.coverage);
            result.total_covered = rep.total_covered;
          },
          [&](const TopKWeightedQuery& q) {
            cancel.throw_if_stopped("top-k scan");
            // Top-k ranks skyline members only, so a snapshot that carries
            // its skyline (every one a write published; the construction
            // snapshot after a skyline read) is ranked as it stands — the
            // same members with the same bits as BNL over every row.
            if (snap.full_skyline != nullptr) {
              span.arg("topk_from", "snapshot");
              result.ranking = skyline::top_k_of_skyline(*snap.full_skyline, q.weights, q.k);
            } else {
              span.arg("topk_from", "dataset");
              result.ranking = skyline::top_k_weighted(dataset, q.weights, q.k);
            }
          }},
      query);
  return result;
}

QueryResult QueryEngine::execute(const Query& query) { return execute(query, {}); }

QueryResult QueryEngine::execute(const Query& query, const common::CancellationToken& cancel) {
  // Pin one snapshot for the whole call: every read below — validation,
  // cache key, compute — sees this version, regardless of concurrent inserts.
  const EngineSnapshotPtr snap = snapshot();
  {
    const std::vector<std::string> errors = validate_query(query, snap->dataset->dim());
    if (!errors.empty()) {
      std::string message = "invalid " + query_kind(query) + " query (" +
                            std::to_string(errors.size()) +
                            (errors.size() == 1 ? " problem):" : " problems):");
      for (const std::string& e : errors) message += "\n  - " + e;
      throw InvalidArgument(message);
    }
  }

  common::Timer wall;
  common::ScopedSpan span(options_.trace, "query", "service");
  span.arg("kind", query_kind(query));
  span.arg("version", snap->version);
  counters_.queries.fetch_add(1, std::memory_order_relaxed);

  try {
    // Admission poll BEFORE the cache lookup: a request arriving with an
    // already-expired deadline gets the typed error deterministically, even
    // for a query whose answer is sitting in the cache.
    cancel.throw_if_stopped("query admission");

    const std::string key = cache_key(query, snap->version);
    if (options_.cache_capacity > 0) {
      if (CachedPayload cached; cache_find(key, cached)) {
        counters_.cache_hits.fetch_add(1, std::memory_order_relaxed);
        QueryResult result;  // fresh metrics: the cache never stores any
        result.points = std::move(cached.points);
        result.coverage = std::move(cached.coverage);
        result.total_covered = cached.total_covered;
        result.ranking = std::move(cached.ranking);
        result.metrics.cache_hit = true;
        result.metrics.dataset_version = snap->version;
        result.metrics.result_points =
            result.ranking.empty() ? result.points.size() : result.ranking.size();
        result.metrics.wall_ns = wall.elapsed_ns();
        span.arg("cache_hit", 1);
        span.arg("points", result.metrics.result_points);
        return result;
      }
    }

    QueryResult result = compute(*snap, query, cancel, span);
    result.metrics.dataset_version = snap->version;
    result.metrics.result_points =
        result.ranking.empty() ? result.points.size() : result.ranking.size();
    // Final poll before the answer becomes observable: a cancelled query
    // never seeds the result cache, even when its compute happened to finish.
    cancel.throw_if_stopped("result publication");
    cache_store(
        key, snap->version,
        CachedPayload{result.points, result.coverage, result.total_covered, result.ranking});
    result.metrics.wall_ns = wall.elapsed_ns();
    span.arg("cache_hit", 0);
    span.arg("points", result.metrics.result_points);
    span.arg("dominance_tests", result.metrics.dominance_tests);
    return result;
  } catch (const QueryCancelled&) {
    counters_.queries_cancelled.fetch_add(1, std::memory_order_relaxed);
    span.arg("cancelled", 1);
    throw;
  }
}

std::vector<QueryResult> QueryEngine::execute_batch(std::span<const Query> queries) {
  common::ScopedSpan span(options_.trace, "query-batch", "service");
  span.arg("queries", queries.size());
  std::vector<QueryResult> results;
  results.reserve(queries.size());
  for (const Query& q : queries) results.push_back(execute(q));
  return results;
}

std::uint64_t QueryEngine::insert_batch(const data::PointSet& points) {
  // The dimension never changes, so any snapshot can check it.
  const std::size_t dim = snapshot()->dataset->dim();
  MRSKY_REQUIRE(points.dim() == dim, "insert_batch dimension mismatch: batch has " +
                                         std::to_string(points.dim()) +
                                         " attributes, dataset has " + std::to_string(dim));
  if (points.empty()) return version();
  MutationBatch batch;
  batch.inserts = points;
  return apply_batch(batch).snapshot->version;
}

void QueryEngine::purge_derived_state(const EngineSnapshotPtr& published) {
  // Partition fits were learned on the old data; drop the memo so the next
  // pipeline run re-fits (MR-Grid's pruning in particular must never act on
  // stale cell occupancy). In-flight runs pinned their fit via shared_ptr.
  {
    std::lock_guard<std::mutex> lock(fits_mutex_);
    fits_.clear();
  }
  // Version-keyed entries can no longer hit; purge them eagerly — counted as
  // evictions — so cache occupancy reflects live entries only.
  {
    std::lock_guard<std::mutex> lock(cache_mutex_);
    counters_.cache_evictions.fetch_add(cache_index_.size(), std::memory_order_relaxed);
    lru_.clear();
    cache_index_.clear();
  }

  // Refresh the full-skyline entry at the new version: the one query kind a
  // write does NOT invalidate.
  CachedPayload payload;
  payload.points = *published->full_skyline;
  cache_store(cache_key(Query{SkylineQuery{}}, published->version), published->version, payload);
}

void QueryEngine::engage_streaming(const EngineSnapshot& snap) {
  const data::PointSet& dataset = *snap.dataset;
  maintained_ = snap.full_skyline != nullptr
                    ? std::make_unique<skyline::MaintainedSkyline>(dataset,
                                                                   snap.full_skyline->ids())
                    : std::make_unique<skyline::MaintainedSkyline>(dataset);
  if (options_.window_capacity > 0) {
    arrival_order_.assign(dataset.ids().begin(), dataset.ids().end());
  }
}

void QueryEngine::publish_delta(const StreamDelta& delta) {
  std::lock_guard<std::mutex> lock(subs_mutex_);
  std::size_t live = 0;
  for (std::size_t i = 0; i < subs_.size(); ++i) {
    if (StreamSubscriptionPtr sub = subs_[i].lock()) {
      sub->publish(delta);
      // Compact dead entries in place; a self-move would EMPTY the weak_ptr.
      if (live != i) subs_[live] = std::move(subs_[i]);
      ++live;
      counters_.deltas_published.fetch_add(1, std::memory_order_relaxed);
    }
  }
  subs_.resize(live);
}

ApplyResult QueryEngine::apply_batch(const MutationBatch& batch) {
  std::lock_guard<std::mutex> write_lock(write_mutex_);
  const EngineSnapshotPtr old = snapshot();
  if (!batch.inserts.empty()) {
    MRSKY_REQUIRE(batch.inserts.dim() == old->dataset->dim(),
                  "apply_batch dimension mismatch: batch has " +
                      std::to_string(batch.inserts.dim()) + " attributes, dataset has " +
                      std::to_string(old->dataset->dim()));
  }
  MRSKY_REQUIRE(batch.ttl_ticks.empty() || batch.ttl_ticks.size() == batch.inserts.size(),
                "apply_batch: ttl_ticks must be empty or parallel to inserts (" +
                    std::to_string(batch.ttl_ticks.size()) + " ttls for " +
                    std::to_string(batch.inserts.size()) + " inserts)");

  // The rows the rebuild below copies from, in ascending-id order. Every
  // snapshot a write published is; the construction snapshot keeps its
  // input's order (a z-ordered .mrb, a CSV id column), so the first write
  // sorts a copy of it. The count window still takes that input order as
  // the arrival order.
  std::shared_ptr<const data::PointSet> prev_rows = old->dataset;
  if (maintained_ == nullptr) {
    engage_streaming(*old);
    const std::span<const data::PointId> ids = old->dataset->ids();
    if (!std::is_sorted(ids.begin(), ids.end())) {
      prev_rows = std::make_shared<const data::PointSet>(canonical_by_id(*old->dataset));
    }
  }
  ++tick_;

  common::ScopedSpan span(options_.trace, "apply-batch", "service");
  span.arg("tick", tick_);
  span.arg("version", old->version + 1);
  counters_.apply_batches.fetch_add(1, std::memory_order_relaxed);

  StreamDelta delta;
  delta.tick = tick_;
  delta.version = old->version + 1;
  delta.entered = data::PointSet(old->dataset->dim());
  const std::vector<data::PointId> before = maintained_->skyline_ids();
  std::vector<data::PointId> removed_ids;
  std::vector<data::PointId> new_ids;

  // 1. TTL expiry. Liveness is checked lazily: an id deleted before its
  // expiry just pops as a no-op (ids are never reused, so no ambiguity).
  while (!expiries_.empty() && expiries_.top().first <= tick_) {
    const data::PointId id = expiries_.top().second;
    expiries_.pop();
    if (maintained_->erase(id).erased) {
      ++delta.expired;
      removed_ids.push_back(id);
    }
  }

  // 2. Explicit deletes.
  for (data::PointId id : batch.deletes) {
    if (maintained_->erase(id).erased) {
      ++delta.deleted;
      removed_ids.push_back(id);
    } else {
      ++delta.missing_deletes;
    }
  }

  // 3. Inserts, under fresh engine ids (insert_batch's contract).
  for (std::size_t i = 0; i < batch.inserts.size(); ++i) {
    const data::PointId id = next_id_++;
    (void)maintained_->insert(batch.inserts.point(i), id);
    if (options_.window_capacity > 0) arrival_order_.push_back(id);
    new_ids.push_back(id);
    const std::int64_t requested = batch.ttl_ticks.empty() ? 0 : batch.ttl_ticks[i];
    const std::uint64_t ttl = requested > 0 ? static_cast<std::uint64_t>(requested)
                                            : options_.window_ticks;
    if (ttl > 0) expiries_.emplace(tick_ + ttl, id);
    ++delta.inserted;
  }

  // 4. Count-window eviction: oldest surviving arrivals leave first.
  if (options_.window_capacity > 0) {
    while (maintained_->size() > options_.window_capacity && !arrival_order_.empty()) {
      const data::PointId id = arrival_order_.front();
      arrival_order_.pop_front();
      if (maintained_->erase(id).erased) {
        ++delta.expired;
        removed_ids.push_back(id);
      }
    }
    // Ids that left by delete or TTL stay queued until eviction reaches
    // them, which it never does while deletes keep the set under capacity.
    // Every live id is queued, so once the stale ones outnumber the live
    // ones, drop them (order kept): amortised O(1) per removal.
    if (arrival_order_.size() > 2 * maintained_->size()) {
      std::erase_if(arrival_order_,
                    [this](data::PointId id) { return !maintained_->contains(id); });
    }
  }

  // Publish: every written snapshot holds its dataset in ascending-id order
  // and carries the exact full skyline. The previous rows are ascending and
  // fresh ids sort after every existing one, so the next dataset is the
  // previous rows copied in runs — one bulk append per stretch between
  // removed ids, found by binary search — then the new rows. NOT a
  // re-canonicalisation of the whole live set from the hash index, which
  // would make every tick pay an O(n log n) scatter-sort for a handful of
  // mutations.
  std::sort(removed_ids.begin(), removed_ids.end());
  const data::PointSet& prev = *prev_rows;
  const std::span<const data::PointId> prev_ids = prev.ids();
  const std::size_t dim = prev.dim();
  auto live = std::make_shared<data::PointSet>(dim);
  live->reserve(prev.size() + new_ids.size());
  std::size_t run = 0;  // first previous row not yet copied
  for (const data::PointId id : removed_ids) {
    const auto it = std::lower_bound(prev_ids.begin() + static_cast<std::ptrdiff_t>(run),
                                     prev_ids.end(), id);
    // A row inserted this tick and evicted by the count window is not in
    // the previous snapshot.
    if (it == prev_ids.end() || *it != id) continue;
    const auto at = static_cast<std::size_t>(it - prev_ids.begin());
    live->append_rows(prev.raw().subspan(run * dim, (at - run) * dim),
                      prev_ids.subspan(run, at - run));
    run = at + 1;
  }
  live->append_rows(prev.raw().subspan(run * dim), prev_ids.subspan(run));
  for (std::size_t i = 0; i < new_ids.size(); ++i) {
    // A count window smaller than the batch can evict a row inserted this
    // very tick; those ids are in removed_ids, not in the previous snapshot.
    if (std::binary_search(removed_ids.begin(), removed_ids.end(), new_ids[i])) continue;
    live->push_back(batch.inserts.point(i), new_ids[i]);
  }

  auto next = std::make_shared<EngineSnapshot>();
  next->version = delta.version;
  next->dataset = std::move(live);
  next->full_skyline = std::make_shared<const data::PointSet>(maintained_->skyline_points());
  span.arg("live_points", next->dataset->size());
  span.arg("skyline_points", next->full_skyline->size());

  // Skyline diff vs the previous version (both sides ascending by id).
  const data::PointSet& after = *next->full_skyline;
  std::size_t bi = 0;
  for (std::size_t ai = 0; ai < after.size(); ++ai) {
    const data::PointId id = after.id(ai);
    while (bi < before.size() && before[bi] < id) {
      delta.left.push_back(before[bi]);
      ++bi;
    }
    if (bi < before.size() && before[bi] == id) {
      ++bi;
    } else {
      delta.entered.push_back(after.point(ai), id);
    }
  }
  while (bi < before.size()) {
    delta.left.push_back(before[bi]);
    ++bi;
  }

  counters_.points_deleted.fetch_add(delta.deleted, std::memory_order_relaxed);
  counters_.points_expired.fetch_add(delta.expired, std::memory_order_relaxed);
  counters_.deletes_missed.fetch_add(delta.missing_deletes, std::memory_order_relaxed);
  counters_.inserts.fetch_add(batch.inserts.empty() ? 0 : 1, std::memory_order_relaxed);
  counters_.points_inserted.fetch_add(delta.inserted, std::memory_order_relaxed);
  counters_.stream_entered.fetch_add(delta.entered.size(), std::memory_order_relaxed);
  counters_.stream_left.fetch_add(delta.left.size(), std::memory_order_relaxed);

  const EngineSnapshotPtr published = next;
  set_snapshot(std::move(next));
  purge_derived_state(published);
  // Fan out AFTER the snapshot swap, still under write_mutex_: subscribers
  // see versions in publication order, and a subscriber that registered
  // between the swap and this point drops the delta as covered by its base.
  publish_delta(delta);
  return ApplyResult{published, std::move(delta)};
}

StreamSubscriptionPtr QueryEngine::subscribe() {
  for (int attempt = 0; attempt < 3; ++attempt) {
    {
      // Registration and base-snapshot read happen under subs_mutex_ so the
      // handoff with publish_delta (which holds it while fanning out) is
      // gapless: either the base snapshot already covers a delta, or the
      // registered subscription receives it.
      std::lock_guard<std::mutex> lock(subs_mutex_);
      const EngineSnapshotPtr snap = snapshot();
      if (snap->full_skyline != nullptr) {
        auto sub = std::make_shared<StreamSubscription>(snap->version, snap->full_skyline,
                                                        options_.subscription_queue_capacity);
        subs_.push_back(sub);
        return sub;
      }
    }
    // No skyline resident yet: run one (caches + publishes it), then retry.
    (void)execute(Query{SkylineQuery{}});
  }
  // A writer raced every retry. Compute the base directly from a pinned
  // snapshot — exact for that version, and deltas take over from there.
  std::lock_guard<std::mutex> lock(subs_mutex_);
  const EngineSnapshotPtr snap = snapshot();
  std::shared_ptr<const data::PointSet> base = snap->full_skyline;
  if (base == nullptr) {
    base = std::make_shared<const data::PointSet>(
        canonical_by_id(skyline::bnl_skyline(*snap->dataset)));
  }
  auto sub = std::make_shared<StreamSubscription>(snap->version, std::move(base),
                                                  options_.subscription_queue_capacity);
  subs_.push_back(sub);
  return sub;
}

std::uint64_t QueryEngine::tick() const {
  std::lock_guard<std::mutex> lock(write_mutex_);
  return tick_;
}

}  // namespace mrsky::service
