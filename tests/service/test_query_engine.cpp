// service::QueryEngine — every query kind must be bitwise identical to the
// direct computation, with and without cache hits, across insert_batch, and
// under both execution modes (ISSUE 5 acceptance).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/trace.hpp"
#include "src/core/mr_skyline.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/transforms.hpp"
#include "src/service/query_engine.hpp"
#include "src/skyline/algorithms.hpp"
#include "src/skyline/extensions.hpp"
#include "tests/support/quarter_grid.hpp"

namespace mrsky {
namespace {

/// The engine's canonical result form, replicated independently: ascending-id
/// order, coordinates untouched.
data::PointSet canonical(const data::PointSet& ps) {
  std::vector<std::size_t> order(ps.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return ps.id(a) < ps.id(b); });
  return ps.select(order);
}

/// Ids and exact coordinate bits, in output order — equality here is the
/// "bitwise identical" acceptance criterion.
std::vector<std::uint64_t> bits_of(const data::PointSet& ps) {
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < ps.size(); ++i) {
    out.push_back(static_cast<std::uint64_t>(ps.id(i)));
    for (double c : ps.point(i)) out.push_back(std::bit_cast<std::uint64_t>(c));
  }
  return out;
}

std::vector<std::uint64_t> bits_of(const std::vector<skyline::ScoredPoint>& ranking) {
  std::vector<std::uint64_t> out;
  for (const auto& sp : ranking) {
    out.push_back(static_cast<std::uint64_t>(sp.id));
    out.push_back(std::bit_cast<std::uint64_t>(sp.score));
  }
  return out;
}

data::PointSet workload(std::size_t n = 300, std::size_t dim = 4, std::uint64_t seed = 42) {
  return data::generate(data::Distribution::kAnticorrelated, n, dim, seed);
}

TEST(QueryEngine, FullSkylineMatchesPipelineBitwise) {
  const auto ps = workload();
  service::QueryEngine engine(ps, {});

  const auto direct = core::run_mr_skyline(ps, core::MRSkylineConfig{});
  const auto result = engine.execute(service::SkylineQuery{});

  EXPECT_FALSE(result.metrics.cache_hit);
  EXPECT_EQ(result.metrics.dataset_version, 0u);
  EXPECT_GT(result.metrics.dominance_tests, 0u);
  EXPECT_EQ(result.metrics.result_points, result.points.size());
  EXPECT_EQ(bits_of(result.points), bits_of(canonical(direct.skyline)));
}

TEST(QueryEngine, SubspaceMatchesProjectedPipeline) {
  const auto ps = workload();
  service::QueryEngine engine(ps, {});
  const std::vector<std::size_t> attrs = {0, 2};

  const auto projected = data::project(ps, attrs);
  const auto direct = core::run_mr_skyline(projected, core::MRSkylineConfig{});
  const auto result = engine.execute(service::SubspaceQuery{attrs});

  EXPECT_EQ(bits_of(result.points), bits_of(canonical(direct.skyline)));
  EXPECT_EQ(result.points.dim(), attrs.size());
}

TEST(QueryEngine, ExtensionsMatchDirectComputation) {
  const auto ps = workload();
  service::QueryEngine engine(ps, {});

  const auto skyband = engine.execute(service::KSkybandQuery{3});
  EXPECT_EQ(bits_of(skyband.points), bits_of(canonical(skyline::k_skyband(ps, 3))));

  const auto rep = engine.execute(service::RepresentativeQuery{5});
  const auto rep_direct = skyline::representative_skyline(ps, 5);
  EXPECT_EQ(bits_of(rep.points), bits_of(rep_direct.representatives));
  EXPECT_EQ(rep.coverage, rep_direct.coverage);
  EXPECT_EQ(rep.total_covered, rep_direct.total_covered);

  const std::vector<double> weights = {0.4, 0.3, 0.2, 0.1};
  const auto topk = engine.execute(service::TopKWeightedQuery{weights, 7});
  EXPECT_EQ(bits_of(topk.ranking), bits_of(skyline::top_k_weighted(ps, weights, 7)));
  EXPECT_EQ(topk.metrics.result_points, topk.ranking.size());
}

TEST(QueryEngine, CacheHitIsBitwiseIdenticalToFirstAnswer) {
  service::QueryEngine engine(workload(), {});
  const std::vector<double> weights = {0.25, 0.25, 0.25, 0.25};
  const std::vector<service::Query> queries = {
      service::SkylineQuery{}, service::SubspaceQuery{{1, 3}}, service::KSkybandQuery{2},
      service::RepresentativeQuery{4}, service::TopKWeightedQuery{weights, 5}};

  for (const auto& query : queries) {
    const auto cold = engine.execute(query);
    const auto warm = engine.execute(query);
    EXPECT_FALSE(cold.metrics.cache_hit);
    EXPECT_TRUE(warm.metrics.cache_hit) << service::query_signature(query);
    EXPECT_EQ(bits_of(cold.points), bits_of(warm.points));
    EXPECT_EQ(bits_of(cold.ranking), bits_of(warm.ranking));
    EXPECT_EQ(cold.coverage, warm.coverage);
    EXPECT_EQ(warm.metrics.result_points, cold.metrics.result_points);
  }
  EXPECT_EQ(engine.stats().queries, 2 * queries.size());
  EXPECT_EQ(engine.stats().cache_hits, queries.size());
}

TEST(QueryEngine, FitMemoReuseIsObservableWithCachingDisabled) {
  service::QueryEngineOptions options;
  options.cache_capacity = 0;  // no result cache: every execute recomputes
  service::QueryEngine engine(workload(), options);

  const service::Query query = service::SubspaceQuery{{0, 1}};
  const auto first = engine.execute(query);
  const auto second = engine.execute(query);
  EXPECT_FALSE(first.metrics.cache_hit);
  EXPECT_FALSE(second.metrics.cache_hit);
  EXPECT_FALSE(first.metrics.fit_reused);
  EXPECT_TRUE(second.metrics.fit_reused);
  EXPECT_EQ(engine.stats().fits_computed, 1u);
  EXPECT_EQ(engine.stats().fit_reuses, 1u);
  EXPECT_EQ(engine.cache_entries(), 0u);
  EXPECT_EQ(bits_of(first.points), bits_of(second.points));
}

TEST(QueryEngine, InsertInvalidatesDerivedEntriesButKeepsSkyline) {
  const auto ps = workload(250, 3, 9);
  service::QueryEngine engine(ps, {});

  (void)engine.execute(service::SkylineQuery{});
  (void)engine.execute(service::KSkybandQuery{2});
  (void)engine.execute(service::SubspaceQuery{{0, 1}});
  ASSERT_GT(engine.fit_entries(), 0u);

  const auto extra = workload(60, 3, 1234);
  engine.insert_batch(extra);
  EXPECT_EQ(engine.version(), 1u);
  EXPECT_EQ(engine.dataset().size(), ps.size() + extra.size());
  EXPECT_EQ(engine.fit_entries(), 0u);  // stale fits must never serve pruning

  // The full skyline survives the insert (maintained, cache re-seeded).
  const auto sky = engine.execute(service::SkylineQuery{});
  EXPECT_TRUE(sky.metrics.cache_hit);
  EXPECT_EQ(sky.metrics.dataset_version, 1u);
  EXPECT_EQ(bits_of(sky.points), bits_of(canonical(skyline::bnl_skyline(engine.dataset()))));

  // Derived kinds were computed against version 0: they must recompute.
  const auto band = engine.execute(service::KSkybandQuery{2});
  EXPECT_FALSE(band.metrics.cache_hit);
  EXPECT_EQ(bits_of(band.points), bits_of(canonical(skyline::k_skyband(engine.dataset(), 2))));
  const auto sub = engine.execute(service::SubspaceQuery{{0, 1}});
  EXPECT_FALSE(sub.metrics.cache_hit);
}

TEST(QueryEngine, InsertBeforeAnySkylineQueryStillExact) {
  service::QueryEngine engine(workload(200, 3, 5), {});
  engine.insert_batch(workload(50, 3, 6));
  EXPECT_EQ(engine.version(), 1u);
  // The first write loads the maintained skyline, so the insert's snapshot
  // carries the full skyline and the read needs no pipeline run.
  ASSERT_NE(engine.snapshot()->full_skyline, nullptr);

  const auto sky = engine.execute(service::SkylineQuery{});
  EXPECT_TRUE(sky.metrics.cache_hit);
  EXPECT_EQ(engine.stats().pipeline_runs, 0u);
  EXPECT_EQ(bits_of(sky.points), bits_of(canonical(skyline::bnl_skyline(engine.dataset()))));
}

/// insert_batch is one apply_batch tick with inserts only: fed the same
/// batches, an engine written through each publishes the same versions,
/// ticks, snapshot rows and skyline bits — whether or not a skyline read
/// came first. An empty insert_batch publishes nothing, even on an engine
/// that has already written.
TEST(QueryEngine, InsertBatchIsOneApplyBatchTick) {
  for (const bool read_first : {false, true}) {
    const std::string where = read_first ? "skyline read first" : "no read first";
    const data::PointSet ps = workload(240, 3, 61);
    service::QueryEngine inserted(ps, {});
    service::QueryEngine applied(ps, {});
    if (read_first) {
      (void)inserted.execute(service::SkylineQuery{});
      (void)applied.execute(service::SkylineQuery{});
    }
    for (std::uint64_t round = 0; round < 4; ++round) {
      const data::PointSet batch = workload(30, 3, 62 + round);
      service::MutationBatch mutation;
      mutation.inserts = batch;
      const std::uint64_t version = inserted.insert_batch(batch);
      const service::ApplyResult r = applied.apply_batch(mutation);

      const std::uint64_t tick = applied.tick();
      EXPECT_EQ(applied.insert_batch(data::PointSet(3)), r.snapshot->version)
          << where << " round " << round;
      EXPECT_EQ(applied.version(), r.snapshot->version) << where << " round " << round;
      EXPECT_EQ(applied.tick(), tick) << where << " round " << round;

      EXPECT_EQ(version, r.snapshot->version) << where << " round " << round;
      EXPECT_EQ(inserted.tick(), applied.tick()) << where << " round " << round;

      const service::EngineSnapshotPtr snap = inserted.snapshot();
      EXPECT_EQ(bits_of(*snap->dataset), bits_of(*r.snapshot->dataset))
          << where << " round " << round;
      ASSERT_NE(snap->full_skyline, nullptr) << where << " round " << round;
      EXPECT_EQ(bits_of(*snap->full_skyline), bits_of(*r.snapshot->full_skyline))
          << where << " round " << round;
      EXPECT_EQ(bits_of(*snap->full_skyline),
                bits_of(canonical(skyline::bnl_skyline(*snap->dataset))))
          << where << " round " << round;
    }
    EXPECT_EQ(inserted.stats().apply_batches, 4u) << where;
  }
}

TEST(QueryEngine, RepeatedInsertsKeepFoldExact) {
  service::QueryEngine engine(workload(150, 3, 21), {});
  (void)engine.execute(service::SkylineQuery{});
  for (std::uint64_t round = 0; round < 3; ++round) {
    engine.insert_batch(workload(40, 3, 100 + round));
    const auto sky = engine.execute(service::SkylineQuery{});
    EXPECT_TRUE(sky.metrics.cache_hit) << "round " << round;
    EXPECT_EQ(bits_of(sky.points), bits_of(canonical(skyline::bnl_skyline(engine.dataset()))))
        << "round " << round;
  }
  EXPECT_EQ(engine.version(), 3u);
  EXPECT_EQ(engine.stats().pipeline_runs, 1u);  // everything after run 1 was folded
}

TEST(QueryEngine, SequentialAndThreadedEnginesAgreeBitwise) {
  const auto ps = workload(280, 4, 77);
  const auto extra = workload(70, 4, 78);
  const std::vector<double> weights = {0.1, 0.2, 0.3, 0.4};
  const std::vector<service::Query> queries = {
      service::SkylineQuery{}, service::SubspaceQuery{{0, 3}}, service::KSkybandQuery{2},
      service::RepresentativeQuery{6}, service::TopKWeightedQuery{weights, 8}};

  service::QueryEngineOptions sequential;
  sequential.config.run_options.mode = mr::ExecutionMode::kSequential;
  service::QueryEngineOptions threaded;
  threaded.config.run_options.mode = mr::ExecutionMode::kThreads;
  threaded.config.run_options.num_threads = 4;

  service::QueryEngine a(ps, sequential);
  service::QueryEngine b(ps, threaded);
  auto run_session = [&](service::QueryEngine& engine) {
    auto results = engine.execute_batch(queries);
    engine.insert_batch(extra);
    auto after = engine.execute_batch(queries);
    results.insert(results.end(), std::make_move_iterator(after.begin()),
                   std::make_move_iterator(after.end()));
    return results;
  };
  const auto ra = run_session(a);
  const auto rb = run_session(b);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(bits_of(ra[i].points), bits_of(rb[i].points)) << "query " << i;
    EXPECT_EQ(bits_of(ra[i].ranking), bits_of(rb[i].ranking)) << "query " << i;
    EXPECT_EQ(ra[i].coverage, rb[i].coverage) << "query " << i;
    EXPECT_EQ(ra[i].metrics.cache_hit, rb[i].metrics.cache_hit) << "query " << i;
  }
}

TEST(QueryEngine, ExecuteBatchSeesEarlierCacheEntries) {
  service::QueryEngine engine(workload(), {});
  const std::vector<service::Query> queries = {service::KSkybandQuery{2},
                                               service::KSkybandQuery{2}};
  const auto results = engine.execute_batch(queries);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].metrics.cache_hit);
  EXPECT_TRUE(results[1].metrics.cache_hit);
  EXPECT_EQ(bits_of(results[0].points), bits_of(results[1].points));
}

TEST(QueryEngine, LruEvictsAtCapacity) {
  service::QueryEngineOptions options;
  options.cache_capacity = 2;
  service::QueryEngine engine(workload(120, 3, 3), options);

  (void)engine.execute(service::KSkybandQuery{2});
  (void)engine.execute(service::KSkybandQuery{3});
  (void)engine.execute(service::KSkybandQuery{4});  // evicts k=2
  EXPECT_EQ(engine.cache_entries(), 2u);
  EXPECT_EQ(engine.stats().cache_evictions, 1u);
  EXPECT_TRUE(engine.execute(service::KSkybandQuery{3}).metrics.cache_hit);
  EXPECT_TRUE(engine.execute(service::KSkybandQuery{4}).metrics.cache_hit);
  // k=2 was the least-recently-used entry when k=4 arrived: it is gone.
  EXPECT_FALSE(engine.execute(service::KSkybandQuery{2}).metrics.cache_hit);
}

TEST(QueryEngine, InvalidQueryThrowsEveryProblemAtOnce) {
  service::QueryEngine engine(workload(), {});
  service::TopKWeightedQuery bad;
  bad.k = 0;
  bad.weights = {0.5, -1.0};  // wrong count for dim=4 AND negative
  try {
    (void)engine.execute(service::Query{bad});
    FAIL() << "execute accepted an invalid query";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("3 problems"), std::string::npos) << what;
    EXPECT_NE(what.find("k must be >= 1"), std::string::npos) << what;
    EXPECT_NE(what.find("2 weights for 4 attributes"), std::string::npos) << what;
    EXPECT_NE(what.find("non-negative"), std::string::npos) << what;
  }
  EXPECT_EQ(engine.stats().queries, 0u);  // rejected before any accounting
}

TEST(QueryEngine, ConstructionValidatesConfigWithAllErrors) {
  service::QueryEngineOptions options;
  options.config.servers = 0;
  options.config.merge_fan_in = 1;
  try {
    service::QueryEngine engine(workload(), options);
    FAIL() << "constructor accepted an invalid config";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("servers"), std::string::npos) << what;
    EXPECT_NE(what.find("merge_fan_in"), std::string::npos) << what;
  }
}

TEST(QueryEngine, InsertEdgeCases) {
  service::QueryEngine engine(workload(100, 3, 8), {});
  engine.insert_batch(data::PointSet(3));  // empty: no-op
  EXPECT_EQ(engine.version(), 0u);
  EXPECT_THROW(engine.insert_batch(data::PointSet(5)), InvalidArgument);
  EXPECT_THROW(service::QueryEngine(data::PointSet(3), {}), InvalidArgument);
}

/// The maintained skyline is keyed by id, so the first write on rows that
/// repeat an id throws and leaves the engine as it was; reads still serve.
TEST(QueryEngine, FirstWriteOnDuplicateIdsThrowsAndChangesNothing) {
  const data::PointSet ps = workload(60, 3, 71);
  data::PointSet dup = ps;
  dup.push_back(ps.point(1), ps.id(0));
  service::QueryEngine engine(dup, {});
  EXPECT_THROW(engine.insert_batch(workload(5, 3, 72)), InvalidArgument);
  EXPECT_EQ(engine.version(), 0u);
  EXPECT_EQ(engine.tick(), 0u);
  EXPECT_EQ(engine.snapshot()->full_skyline, nullptr);
  EXPECT_EQ(engine.stats().apply_batches, 0u);
  EXPECT_EQ(engine.execute(service::SkylineQuery{}).points.size(),
            skyline::bnl_skyline(dup).size());
}

/// A count window evicts the oldest live arrivals. Rows deleted while the
/// set stays under capacity leave stale entries in the arrival queue, which
/// the engine drops once they outnumber the live rows; a burst over capacity
/// afterwards must still evict exactly the oldest live arrivals.
TEST(QueryEngine, CountWindowEvictsTheOldestLiveArrivalsAfterDeleteChurn) {
  const data::PointSet initial = workload(40, 3, 81);
  const data::PointSet fresh = workload(400, 3, 82);
  service::QueryEngineOptions options;
  options.window_capacity = 50;
  service::QueryEngine engine(initial, options);
  std::vector<data::PointId> arrivals(initial.ids().begin(), initial.ids().end());  // live only
  common::Rng rng(83);
  std::size_t row = 0;
  const auto one_row = [&] {
    data::PointSet batch(3);
    batch.push_back(fresh.point(row++));
    return batch;
  };
  for (int tick = 0; tick < 300; ++tick) {
    service::MutationBatch batch;
    batch.inserts = one_row();
    const std::size_t victim = rng.uniform_index(arrivals.size());
    batch.deletes.push_back(arrivals[victim]);
    arrivals.erase(arrivals.begin() + static_cast<std::ptrdiff_t>(victim));
    const service::ApplyResult r = engine.apply_batch(batch);
    ASSERT_EQ(r.delta.deleted, 1u);
    ASSERT_EQ(r.delta.expired, 0u);
    arrivals.push_back(r.snapshot->dataset->ids().back());  // fresh ids sort last
  }
  ASSERT_EQ(engine.snapshot()->dataset->size(), 40u);

  service::MutationBatch burst;
  burst.inserts = data::PointSet(3);
  for (int i = 0; i < 30; ++i) burst.inserts.push_back(fresh.point(row++));
  const service::ApplyResult r = engine.apply_batch(burst);
  EXPECT_EQ(r.delta.expired, 20u);
  const std::span<const data::PointId> after = r.snapshot->dataset->ids();
  ASSERT_EQ(after.size(), 50u);
  // The 20 oldest live arrivals left; the other 20 and all 30 new rows stay.
  std::vector<data::PointId> want(arrivals.begin() + 20, arrivals.end());
  for (std::size_t i = after.size() - 30; i < after.size(); ++i) want.push_back(after[i]);
  std::sort(want.begin(), want.end());
  EXPECT_EQ(std::vector<data::PointId>(after.begin(), after.end()), want);
  EXPECT_TRUE(bits_of(*r.snapshot->full_skyline) ==
              bits_of(canonical(skyline::naive_skyline(*r.snapshot->dataset))));
}

/// The `topk_from` arg of every top-k `query` span, in order ("" if absent).
std::vector<std::string> topk_sources(const common::TraceRecorder& trace) {
  std::vector<std::string> sources;
  for (const common::TraceSpan& s : trace.spans()) {
    const common::TraceArg* kind = s.name == "query" ? s.find_arg("kind") : nullptr;
    if (kind == nullptr || kind->value != "top_k_weighted") continue;
    const common::TraceArg* from = s.find_arg("topk_from");
    sources.push_back(from == nullptr ? "" : from->value);
  }
  return sources;
}

/// An engine ranks the whole dataset until a skyline is resident, then
/// ranks that skyline: after a skyline read and after an insert. Both paths
/// must return the same bits — on the quarter grid too, where duplicate rows
/// tie in score and the order falls to their ids.
TEST(QueryEngine, TopKRanksTheResidentSkylineWithTheSameBits) {
  for (const bool quarter_grid : {false, true}) {
    data::PointSet ps = workload(1500, 4, 29);
    data::PointSet extra = workload(200, 4, 30);
    if (quarter_grid) {
      ps = test::snap_to_quarter_grid(ps);
      extra = test::snap_to_quarter_grid(extra);
    }
    const std::vector<double> weights = {0.25, 0.5, 0.25, 0.5};
    const service::Query query = service::TopKWeightedQuery{weights, 9};
    common::TraceRecorder trace;
    service::QueryEngineOptions options;
    options.cache_capacity = 0;
    options.trace = &trace;
    service::QueryEngine engine(ps, options);

    const auto scanned = engine.execute(query);
    (void)engine.execute(service::SkylineQuery{});
    const auto ranked = engine.execute(query);
    EXPECT_EQ(bits_of(scanned.ranking), bits_of(skyline::top_k_weighted(ps, weights, 9)));
    EXPECT_EQ(bits_of(ranked.ranking), bits_of(scanned.ranking));

    engine.insert_batch(extra);
    const auto folded = engine.execute(query);
    EXPECT_EQ(bits_of(folded.ranking),
              bits_of(skyline::top_k_weighted(engine.dataset(), weights, 9)));
    EXPECT_EQ(topk_sources(trace),
              (std::vector<std::string>{"dataset", "snapshot", "snapshot"}))
        << (quarter_grid ? "quarter-grid" : "");
  }
}

/// The engine fits its partitioners on at most kOutOfCoreFitSample rows —
/// full-skyline and subspace fits alike — and every answer stays bitwise
/// the canonical MRSkylineConfig{} answer, which fits on every row. A
/// registry of at most that many rows is still fitted on every row.
TEST(QueryEngine, FitsOnABoundedSampleWithTheSameAnswers) {
  const std::vector<std::size_t> attrs = {0, 2};
  for (const part::Scheme scheme :
       {part::Scheme::kAngular, part::Scheme::kGrid, part::Scheme::kDimensional}) {
    for (const std::size_t n : {std::size_t{6000}, std::size_t{3000}}) {
      const std::string where = part::to_string(scheme) + " n=" + std::to_string(n);
      const data::PointSet ps = workload(n, 4, 31);
      common::TraceRecorder trace;
      service::QueryEngineOptions options;
      options.config.scheme = scheme;
      options.cache_capacity = 0;  // the second subspace read computes again
      options.trace = &trace;
      service::QueryEngine engine(ps, options);

      // Before any skyline read the subspace read fits on a bounded sample of
      // every projected row; after it, on all of the snapshot skyline's
      // candidates, which are fewer than the bound.
      const auto sub_dataset = engine.execute(service::SubspaceQuery{attrs});
      const auto full = engine.execute(service::SkylineQuery{});
      const auto sub_skyline = engine.execute(service::SubspaceQuery{attrs});
      core::MRSkylineConfig algorithm1;
      algorithm1.scheme = scheme;
      EXPECT_EQ(bits_of(full.points),
                bits_of(canonical(core::run_mr_skyline(ps, algorithm1).skyline)))
          << where;
      const auto sub_want = bits_of(
          canonical(core::run_mr_skyline(data::project(ps, attrs), algorithm1).skyline));
      EXPECT_EQ(bits_of(sub_dataset.points), sub_want) << where;
      EXPECT_EQ(bits_of(sub_skyline.points), sub_want) << where;

      std::vector<std::int64_t> fitted;
      std::vector<std::int64_t> candidates;
      for (const common::TraceSpan& s : trace.spans()) {
        if (s.name == "prepared-fit") fitted.push_back(s.arg_int("fitted_points"));
        if (s.name == "query" && s.find_arg("candidates") != nullptr) {
          candidates.push_back(s.arg_int("candidates"));
        }
      }
      const auto want = static_cast<std::int64_t>(std::min(n, core::kOutOfCoreFitSample));
      ASSERT_EQ(candidates.size(), 2U) << where;
      EXPECT_EQ(candidates[0], static_cast<std::int64_t>(n)) << where;
      EXPECT_LT(candidates[1], want) << where;
      EXPECT_EQ(fitted, (std::vector<std::int64_t>{want, want, candidates[1]})) << where;
    }
  }
}

/// The construction snapshot answers subspace reads from every projected row
/// until a skyline read attaches the full skyline, then from that skyline and
/// the rows tied with it. Quarter-grid rows tie on every subspace, and every
/// third row stores its zeros as −0.0; permuted, repeated and single-attribute
/// subspaces included. Both paths must read bitwise what run_mr_skyline
/// computes over the projection.
TEST(QueryEngine, SubspaceReadsTheSnapshotSkylineWithTheSameBits) {
  const data::PointSet ps =
      test::with_negative_zeros(test::snap_to_quarter_grid(workload(400, 4, 23)));
  const std::vector<std::vector<std::size_t>> subspaces = {
      {0, 2}, {3, 0}, {1, 1}, {2}, {0, 1, 2, 3}, {3, 2, 1}};
  common::TraceRecorder trace;
  service::QueryEngineOptions options;
  options.cache_capacity = 0;  // reads after the skyline read compute again
  options.trace = &trace;
  service::QueryEngine engine(ps, options);

  std::vector<data::PointSet> from_dataset;
  for (const auto& attrs : subspaces) {
    from_dataset.push_back(engine.execute(service::SubspaceQuery{attrs}).points);
  }
  (void)engine.execute(service::SkylineQuery{});
  ASSERT_NE(engine.snapshot()->full_skyline, nullptr);
  for (std::size_t i = 0; i < subspaces.size(); ++i) {
    const auto from_skyline = engine.execute(service::SubspaceQuery{subspaces[i]});
    const auto want = bits_of(canonical(
        core::run_mr_skyline(data::project(ps, subspaces[i]), core::MRSkylineConfig{}).skyline));
    EXPECT_EQ(bits_of(from_dataset[i]), want) << "subspace " << i;
    EXPECT_EQ(bits_of(from_skyline.points), want) << "subspace " << i;
  }

  std::vector<std::string> paths;
  std::vector<std::int64_t> candidates;
  for (const common::TraceSpan& s : trace.spans()) {
    const common::TraceArg* from = s.name == "query" ? s.find_arg("subspace_from") : nullptr;
    if (from == nullptr) continue;
    paths.push_back(from->value);
    candidates.push_back(s.arg_int("candidates"));
  }
  std::vector<std::string> want_paths(subspaces.size(), "dataset");
  want_paths.resize(2 * subspaces.size(), "skyline");
  EXPECT_EQ(paths, want_paths);
  ASSERT_EQ(candidates.size(), want_paths.size());
  for (std::size_t i = 0; i < subspaces.size(); ++i) {
    EXPECT_EQ(candidates[i], static_cast<std::int64_t>(ps.size())) << "subspace " << i;
    EXPECT_LT(candidates[subspaces.size() + i], static_cast<std::int64_t>(ps.size()))
        << "subspace " << i;
  }
}

/// A hand-built dataset may give two rows one id. Row 1 shares row 0's id,
/// is off the full skyline (row 0 dominates it) and ties row 0 on {0, 1}, so
/// the subspace skyline holds it: the skyline path must not take it for the
/// full-skyline member that carries its id.
TEST(QueryEngine, SubspaceFromTheSkylineKeepsATiedRowSharingAnId) {
  data::PointSet ps(3);
  ps.push_back(std::vector<double>{0.1, 0.5, 0.9}, 7);
  ps.push_back(std::vector<double>{0.1, 0.5, 0.95}, 7);
  ps.push_back(std::vector<double>{0.5, 0.1, 0.2}, 8);
  ps.push_back(std::vector<double>{0.6, 0.6, 0.6}, 9);
  service::QueryEngineOptions options;
  options.cache_capacity = 0;
  service::QueryEngine engine(ps, options);
  const std::vector<std::size_t> attrs = {0, 1};
  const auto from_dataset = engine.execute(service::SubspaceQuery{attrs});
  ASSERT_EQ(engine.execute(service::SkylineQuery{}).points.size(), 2u);
  const auto from_skyline = engine.execute(service::SubspaceQuery{attrs});
  EXPECT_EQ(from_dataset.points.size(), 3u);
  EXPECT_EQ(bits_of(from_skyline.points), bits_of(from_dataset.points));
}

}  // namespace
}  // namespace mrsky
