// Resident skyline query engine (ISSUE 5 tentpole, made concurrency-safe in
// ISSUE 6).
//
// The paper's serving scenario (§II) is a *live* UDDI registry: many skyline
// queries and service insertions against one resident dataset. Re-running
// run_mr_skyline per request re-fits the partitioner and re-spawns engine
// state every time; this class is the coordinator that amortises all of that
// across queries, the way Zhang & Zhang reuse coordinator-side state across
// rounds and SATO fits a partition plan once and serves many queries from it:
//
//  * the dataset is loaded once and owned by the engine;
//  * one persistent common::ThreadPool backs every kThreads pipeline run;
//  * partition fits are memoised per (version, scheme, partitions,
//    fit-sample[, subspace input]) key and reused until an insert changes
//    the data; each fit reads at most 4,096 sampled rows
//    (core::kOutOfCoreFitSample, set in the default options), so no read
//    fits on the whole registry;
//  * every pipeline run filters with a sample skyline's representatives
//    before the shuffle (MRSkylineConfig::representative_filter, on in the
//    default options), so a subspace read after a write ships only the rows
//    no representative dominates;
//  * top-k reads rank the pinned snapshot's skyline when it carries one
//    (every snapshot a write published does), instead of a BNL over every
//    row;
//  * subspace reads on such a snapshot run the pipeline on its skyline plus
//    the rows tied with it on the subspace (one sweep over the rows finds
//    them), not on every projected row: a subspace skyline holds nothing
//    else;
//  * results are kept in an LRU cache keyed by the query's canonical
//    signature plus the dataset version, so a repeated query is a lookup;
//  * every write — insert_batch() is one apply_batch() tick with inserts
//    only — runs on one skyline::MaintainedSkyline, loaded from the resident
//    rows at the first write (no pipeline re-run), and publishes a snapshot
//    that carries the exact full skyline, which invalidates exactly the
//    derived (subspace / k-skyband / representative / top-k) entries.
//
// Result canonicalisation: skyline, subspace and k-skyband results are
// returned in ascending-id order, so the engine's answer for a given
// (query, dataset version) is bitwise reproducible regardless of which path
// (pipeline, maintained skyline, cache) produced it. Representative picks stay
// in greedy pick order (aligned with their coverage counts) and rankings in
// score order — both deterministic.
//
// Concurrency contract (MVCC snapshot reads): execute(), execute_batch(),
// insert_batch() and every accessor may be called from any number of threads
// concurrently. Each execute() pins one immutable EngineSnapshot — the
// (dataset, full skyline, version) triple — for its whole run, so a reader is
// never affected by a concurrent insert; its answer is bitwise-exact for the
// version it reports in QueryMetrics::dataset_version. insert_batch() builds
// the *next* snapshot on the side (writers serialise on one mutex) and
// publishes it with a pointer swap; readers never block on a writer beyond
// that swap. Partition fits are held by shared_ptr so an in-flight pipeline
// keeps its fit alive across an insert that retires it, and the result
// cache's recency list is guarded by its own small mutex so cache hits stay
// read-only with respect to engine state. Within one execute() the MapReduce
// pipeline parallelises on the engine's pool when the config says kThreads;
// results are bitwise identical to kSequential (the engine inherits the job
// engine's determinism guarantee).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <queue>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/sync.hpp"
#include "src/common/thread_pool.hpp"
#include "src/common/trace.hpp"
#include "src/core/mr_skyline.hpp"
#include "src/dataset/point_set.hpp"
#include "src/partition/partitioner.hpp"
#include "src/service/query.hpp"
#include "src/service/stream.hpp"

namespace mrsky::skyline {
class MaintainedSkyline;
}  // namespace mrsky::skyline

namespace mrsky::service {

struct QueryEngineOptions {
  /// Pipeline configuration for the MapReduce paths (skyline / subspace).
  /// Validated with MRSkylineConfig::validate() at construction — every
  /// problem is reported in one throw. `prepared_partitioner` must be null
  /// (the engine owns fit preparation); under kThreads with no caller pool
  /// the engine creates one persistent pool and reuses it for every query.
  /// Unlike MRSkylineConfig{}, the default turns the representative filter
  /// on: serving wants the answer, not Algorithm 1's shuffle of every row,
  /// and the filter keeps every skyline bitwise (DESIGN.md decision 17). It
  /// also fits partitioners on at most kOutOfCoreFitSample rows: assignment
  /// is total, so answers keep their bits and only partition boundaries move
  /// (decision 18).
  core::MRSkylineConfig config = [] {
    core::MRSkylineConfig serving;
    serving.representative_filter = true;
    serving.fit_sample_size = core::kOutOfCoreFitSample;
    return serving;
  }();

  /// Result-cache entries kept (LRU eviction). 0 disables result caching —
  /// fits and the snapshot's full skyline are still reused.
  std::size_t cache_capacity = 64;

  /// Optional span recorder: the engine records "service"-category spans
  /// (query, prepared-fit, apply-batch) and threads the recorder through the
  /// pipeline's RunOptions, so one file holds the service and engine levels.
  /// Must outlive the engine. Null = tracing off at zero cost.
  common::TraceRecorder* trace = nullptr;

  /// Streaming count window: when > 0, the live set is capped at this many
  /// points — each apply_batch evicts the oldest surviving insertions beyond
  /// the cap (counted as expiries in the delta). 0 = unbounded.
  std::size_t window_capacity = 0;

  /// Streaming time window: default TTL, in logical ticks, for points
  /// inserted without an explicit per-point TTL. 0 = no default expiry.
  /// insert_batch() is an apply_batch tick, so plain inserts respect either
  /// window too.
  std::uint64_t window_ticks = 0;

  /// Undelivered deltas buffered per subscription before the oldest is
  /// dropped and the subscription latches lagged().
  std::size_t subscription_queue_capacity = 1024;
};

/// One immutable, internally consistent view of the engine's data. Readers
/// pin a snapshot for the duration of a query; an insert publishes a new one
/// and never mutates a published snapshot, so everything reachable from here
/// is safe to read without locks for as long as the shared_ptr is held.
struct EngineSnapshot {
  std::uint64_t version = 0;
  std::shared_ptr<const data::PointSet> dataset;
  /// Canonical (ascending-id) full skyline at `version` when known —
  /// computed by a pipeline run at this version, or maintained by the
  /// engine's MaintainedSkyline (every snapshot a write published carries
  /// one). Otherwise null until the first skyline query. Skyline, top-k and
  /// subspace reads start from it when present.
  std::shared_ptr<const data::PointSet> full_skyline;
};
using EngineSnapshotPtr = std::shared_ptr<const EngineSnapshot>;

/// What one apply_batch published: the new snapshot (pinned, so the caller
/// can read the exact dataset/skyline this batch produced regardless of
/// later writers) plus the skyline delta against the previous version.
struct ApplyResult {
  EngineSnapshotPtr snapshot;
  StreamDelta delta;
};

class QueryEngine {
 public:
  /// Loads `dataset` (non-empty; minimisation orientation, non-negative
  /// coordinates for the angular schemes — run_mr_skyline's contract).
  /// Throws mrsky::InvalidArgument listing every config problem at once.
  explicit QueryEngine(data::PointSet dataset, QueryEngineOptions options = {});

  /// Loads the dataset from any DatasetSource (block store, staged CSV,
  /// in-memory). Serving is resident by design — queries, writes and the
  /// maintained skyline all need random access — so the source is materialised
  /// once here; out-of-core execution is the batch pipeline's job
  /// (run_mr_skyline's DatasetSource overload), not the engine's
  /// (DESIGN.md decision 16).
  explicit QueryEngine(const data::DatasetSource& source, QueryEngineOptions options = {});

  /// Closes every live subscription (backlogs stay drainable by holders).
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Serves one query against the snapshot current at entry. Thread-safe.
  /// Throws mrsky::InvalidArgument (all problems in one message) if the query
  /// is invalid for the resident dataset.
  [[nodiscard]] QueryResult execute(const Query& query);

  /// Like execute(query), under cooperative cancellation: `cancel` is polled
  /// at admission (before the cache lookup, so an already-expired deadline
  /// deterministically yields the typed error), threaded into the MapReduce
  /// pipeline's RunOptions, and re-checked before any result is published.
  /// Throws mrsky::QueryCancelled when the token signals — and guarantees a
  /// cancelled query NEVER stores a cache entry or publishes a full-skyline
  /// snapshot (DESIGN.md decision 13): partial pipeline state unwinds, shared
  /// engine state is untouched, and Stats::queries_cancelled is incremented.
  /// An inert (default) token makes this identical to execute(query).
  [[nodiscard]] QueryResult execute(const Query& query, const common::CancellationToken& cancel);

  /// Serves queries in order; element i is execute(queries[i]). Later queries
  /// see cache entries populated by earlier ones.
  [[nodiscard]] std::vector<QueryResult> execute_batch(std::span<const Query> queries);

  /// Appends `points` to the resident dataset under fresh ids (the incoming
  /// ids are ignored; ids continue from max-existing + 1, the §II "new
  /// service added into UDDI" path). A non-empty batch is one apply_batch
  /// tick with inserts only: windows, TTL defaults and subscriptions see it
  /// like any other write, and the published snapshot carries the full
  /// skyline, so the next skyline read is a cache hit. Throws
  /// mrsky::InvalidArgument on a dimension mismatch, even for an empty
  /// batch. Returns the version this batch published (the still-current
  /// version for an empty no-op batch, which publishes no tick) — under
  /// concurrency, version() may already be newer by the time the caller asks.
  std::uint64_t insert_batch(const data::PointSet& points);

  /// Applies one tick — TTL expiry, explicit deletes, inserts, window
  /// eviction, in that order — and publishes the next snapshot plus its
  /// skyline delta. The first write loads the resident dataset into an exact
  /// skyline::MaintainedSkyline; from then on every published snapshot
  /// carries the full skyline (ascending-id dataset, exact under deletion —
  /// deleting a skyline member promotes exactly its exclusive dominees).
  /// Writers serialise; readers only see the pointer swap. Deltas are fanned
  /// out to live subscriptions under the same writer ordering, so every
  /// subscriber observes versions in publication order.
  ApplyResult apply_batch(const MutationBatch& batch);

  /// Registers a standing continuous-skyline query: the returned subscription
  /// carries a base (version, full skyline) pair and receives the delta of
  /// every later apply_batch, gaplessly — replaying deltas onto the base
  /// reproduces each published skyline bitwise. Ensures a full skyline is
  /// resident first (running one skyline query if needed). The subscription
  /// stays registered while the caller holds the pointer; close() (or
  /// dropping it) ends delivery.
  [[nodiscard]] StreamSubscriptionPtr subscribe();

  /// The engine's logical stream clock (ticks advanced by apply_batch).
  [[nodiscard]] std::uint64_t tick() const;

  /// The current snapshot. Holding the returned pointer keeps that version's
  /// dataset and skyline alive across later inserts — this is the handle a
  /// server session uses to answer consistently.
  [[nodiscard]] EngineSnapshotPtr snapshot() const;

  /// Convenience view of the current snapshot's dataset. The reference is
  /// only stable while no concurrent insert_batch retires the snapshot —
  /// single-caller code (CLI, benches) may use it freely; concurrent callers
  /// should hold snapshot() instead.
  [[nodiscard]] const data::PointSet& dataset() const { return *snapshot()->dataset; }
  [[nodiscard]] std::uint64_t version() const { return snapshot()->version; }

  /// Lifetime counters (monotone; for benches and tests).
  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t fits_computed = 0;
    std::uint64_t fit_reuses = 0;
    std::uint64_t pipeline_runs = 0;
    std::uint64_t incremental_serves = 0;  ///< skyline served from the snapshot's skyline
    std::uint64_t inserts = 0;
    std::uint64_t points_inserted = 0;
    std::uint64_t cache_evictions = 0;  ///< LRU capacity + insert-purge evictions
    std::uint64_t queries_cancelled = 0;  ///< typed QueryCancelled aborts (deadline or cancel)
    // Write (apply_batch) activity; a plain insert_batch is one apply_batch.
    std::uint64_t apply_batches = 0;
    std::uint64_t points_deleted = 0;   ///< explicit deletes that hit a live point
    std::uint64_t points_expired = 0;   ///< TTL expiries + count-window evictions
    std::uint64_t deletes_missed = 0;   ///< delete requests for unknown ids
    std::uint64_t stream_entered = 0;   ///< skyline entries across all deltas
    std::uint64_t stream_left = 0;      ///< skyline exits across all deltas
    std::uint64_t deltas_published = 0; ///< delta deliveries to subscriptions
  };
  /// A consistent point-in-time copy of the counters. Thread-safe.
  [[nodiscard]] Stats stats() const;

  /// Current cache / fit-memo occupancy (for tests). Thread-safe.
  [[nodiscard]] std::size_t cache_entries() const;
  [[nodiscard]] std::size_t fit_entries() const;

 private:
  /// What the result cache retains: the answer's data, never its
  /// QueryMetrics — metrics describe one execute() call (wall time, cache
  /// behaviour), so every hit synthesises fresh ones instead of patching a
  /// stale stored copy.
  struct CachedPayload {
    data::PointSet points{1};
    std::vector<std::size_t> coverage;
    std::size_t total_covered = 0;
    std::vector<skyline::ScoredPoint> ranking;
  };
  struct CacheEntry {
    std::string key;
    CachedPayload payload;
  };
  using FitPtr = std::shared_ptr<const part::Partitioner>;

  /// Cache key for `query` at `version`.
  [[nodiscard]] static std::string cache_key(const Query& query, std::uint64_t version);

  /// Looks up / fits-and-memoises the partitioner for `ps` under `fit_key`;
  /// on a miss, core::fit_partitioner fits it from options_.config, on its
  /// fit_sample_size sampled rows when `ps` has more. The returned
  /// shared_ptr pins the fit: a concurrent insert_batch may retire the memo
  /// entry, but the fit object stays alive for this run.
  FitPtr prepared_fit(const data::PointSet& ps, const std::string& fit_key, bool& reused);

  /// Runs the MapReduce pipeline over `ps` with options_.config plus a
  /// prepared fit; returns the canonical (id-sorted) skyline and charges
  /// work into `result`. `cancel` rides into the run's RunOptions, so task
  /// loops poll it.
  data::PointSet pipeline_skyline(const data::PointSet& ps, const std::string& fit_key,
                                  QueryResult& result, const common::CancellationToken& cancel);

  /// Computes a fresh payload for `query` against the pinned snapshot.
  /// `span` is the query's span: a top-k read records which rows it ranked
  /// (`topk_from` = "snapshot" for the snapshot's skyline, "dataset" for a
  /// BNL over every row); a subspace read records its pipeline's input
  /// (`subspace_from` = "skyline" for the snapshot skyline and its ties,
  /// "dataset" for every projected row; `candidates` = its rows).
  [[nodiscard]] QueryResult compute(const EngineSnapshot& snap, const Query& query,
                                    const common::CancellationToken& cancel,
                                    common::ScopedSpan& span);

  /// After a pipeline computed the full skyline at `snap`'s version:
  /// re-publish the snapshot with the skyline attached, unless a concurrent
  /// write moved the version on (then the result is still correct for its
  /// version; it just cannot ride the current snapshot).
  void publish_full_skyline(const EngineSnapshot& snap, const data::PointSet& sky);

  void set_snapshot(EngineSnapshotPtr snap);

  /// Drops version-derived state after a write (fit memo, result cache —
  /// evictions counted) and re-seeds the full-skyline cache entry for
  /// `published`, which carries one.
  void purge_derived_state(const EngineSnapshotPtr& published);

  /// At the first write (caller holds write_mutex_): bulk-loads the
  /// maintained structure from `snap`'s dataset, its full skyline first when
  /// the snapshot carries one, and, under a count window, records the rows'
  /// order as the arrival order.
  void engage_streaming(const EngineSnapshot& snap);

  /// Fans `delta` out to live subscriptions (prunes dead ones).
  void publish_delta(const StreamDelta& delta);

  void cache_store(const std::string& key, std::uint64_t version, const CachedPayload& payload);
  [[nodiscard]] bool cache_find(const std::string& key, CachedPayload& out);

  QueryEngineOptions options_;
  std::unique_ptr<common::ThreadPool> pool_;  ///< owned persistent pool (kThreads)

  /// Guards only the snapshot pointer itself (reads copy the shared_ptr out).
  mutable std::mutex snapshot_mutex_;
  EngineSnapshotPtr snapshot_;

  /// Serialises writers: apply_batch (and so insert_batch) and first-skyline
  /// publication. Guards next_id_ and the write state below. Mutable so
  /// tick() can read under it.
  mutable std::mutex write_mutex_;
  data::PointId next_id_ = 0;

  /// The one maintenance structure: null until the first write loads it.
  std::unique_ptr<skyline::MaintainedSkyline> maintained_;
  std::uint64_t tick_ = 0;
  /// Pending TTL expiries: (expires_at_tick, id) min-heap, checked lazily
  /// against liveness (an id deleted early just pops as a no-op).
  std::priority_queue<std::pair<std::uint64_t, data::PointId>,
                      std::vector<std::pair<std::uint64_t, data::PointId>>,
                      std::greater<>>
      expiries_;
  /// Insertion order for the count window; kept only when window_capacity
  /// > 0. Holds every live id, plus stale ones that left by delete or TTL
  /// (popped lazily, and dropped once they outnumber the live ones).
  std::deque<data::PointId> arrival_order_;

  /// Live subscriptions (weak: a dropped subscriber unregisters itself).
  /// Publication happens under write_mutex_ THEN subs_mutex_; registration
  /// takes subs_mutex_ and reads the snapshot inside it — see subscribe().
  mutable std::mutex subs_mutex_;
  std::vector<std::weak_ptr<StreamSubscription>> subs_;

  /// Fit memo; keys embed the dataset version so a stale fit can never serve
  /// a newer dataset. Entries are dropped on insert; in-flight runs keep
  /// their fit alive through the shared_ptr they pinned.
  mutable std::mutex fits_mutex_;
  std::map<std::string, FitPtr> fits_;

  /// Result cache. Its own small mutex makes the LRU recency touch on the
  /// hit path safe without taking any engine-wide lock.
  mutable std::mutex cache_mutex_;
  std::list<CacheEntry> lru_;  ///< front = most recent
  std::unordered_map<std::string, std::list<CacheEntry>::iterator> cache_index_;

  struct Counters {
    std::atomic<std::uint64_t> queries{0};
    std::atomic<std::uint64_t> cache_hits{0};
    std::atomic<std::uint64_t> fits_computed{0};
    std::atomic<std::uint64_t> fit_reuses{0};
    std::atomic<std::uint64_t> pipeline_runs{0};
    std::atomic<std::uint64_t> incremental_serves{0};
    std::atomic<std::uint64_t> inserts{0};
    std::atomic<std::uint64_t> points_inserted{0};
    std::atomic<std::uint64_t> cache_evictions{0};
    std::atomic<std::uint64_t> queries_cancelled{0};
    std::atomic<std::uint64_t> apply_batches{0};
    std::atomic<std::uint64_t> points_deleted{0};
    std::atomic<std::uint64_t> points_expired{0};
    std::atomic<std::uint64_t> deletes_missed{0};
    std::atomic<std::uint64_t> stream_entered{0};
    std::atomic<std::uint64_t> stream_left{0};
    std::atomic<std::uint64_t> deltas_published{0};
  };
  mutable Counters counters_;
};

}  // namespace mrsky::service
