// Unit tests of the benchmark's own arithmetic and checks: order statistics,
// self time and the layer closure, the result line, the oracles and the
// host-speed probe.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "host_probe.hpp"
#include "measure.hpp"
#include "reference.hpp"
#include "spans.hpp"
#include "src/common/rng.hpp"

namespace perfbench {
namespace {

using mrsky::common::TraceRecorder;
using mrsky::common::ScopedSpan;

TEST(OrderStatistics, MedianOfOddAndEvenSamples) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(OrderStatistics, PercentileIsNearestRank) {
  std::vector<double> hundred(100);
  std::iota(hundred.begin(), hundred.end(), 1.0);
  EXPECT_DOUBLE_EQ(percentile(hundred, 99.0), 99.0);
  EXPECT_DOUBLE_EQ(percentile(hundred, 50.0), 50.0);
  EXPECT_DOUBLE_EQ(percentile(hundred, 100.0), 100.0);
  EXPECT_DOUBLE_EQ(percentile({5.0, 1.0, 3.0, 2.0}, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(percentile({5.0}, 99.0), 5.0);
  EXPECT_THROW((void)percentile({1.0}, 0.0), std::invalid_argument);
  EXPECT_THROW((void)percentile({}, 50.0), std::invalid_argument);
}

TEST(OrderStatistics, Mean) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 6.0}), 3.0);
  EXPECT_THROW((void)mean({}), std::invalid_argument);
}

TEST(SelfTime, CoveredCountsOverlapsOnceAndClips) {
  EXPECT_EQ(covered_ns({}, 0, 100), 0);
  EXPECT_EQ(covered_ns({{10, 20}, {30, 40}}, 0, 100), 20);
  EXPECT_EQ(covered_ns({{10, 30}, {20, 40}}, 0, 100), 30);  // overlap counted once
  EXPECT_EQ(covered_ns({{10, 50}, {20, 30}}, 0, 100), 40);  // nested
  EXPECT_EQ(covered_ns({{-10, 20}, {90, 120}}, 0, 100), 30);  // clipped to [0, 100)
  EXPECT_EQ(covered_ns({{30, 40}, {10, 20}}, 0, 100), 20);  // any order
}

TraceSpan make_span(std::uint64_t id, std::uint64_t parent, const char* name, const char* cat,
                    std::int64_t start, std::int64_t end) {
  TraceSpan s;
  s.id = id;
  s.parent = parent;
  s.name = name;
  s.category = cat;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

/// bench-job [0,1000) > mr-skyline [10,990) > { partition-fit [20,120),
/// job [200,900) > { map [210,400) > attempt [220,390),
///                   reduce [500,890) > attempt [510,880) > local-skyline [520,800) } }
std::vector<TraceSpan> pipeline_spans() {
  std::vector<TraceSpan> spans = {
      make_span(1, 0, "bench-job", "bench", 0, 1000),
      make_span(2, 1, "mr-skyline", "pipeline", 10, 990),
      make_span(3, 2, "partition-fit", "plan", 20, 120),
      make_span(4, 2, "partition+local-skyline", "job", 200, 900),
      make_span(5, 4, "map", "task", 210, 400),
      make_span(6, 5, "attempt", "attempt", 220, 390),
      make_span(7, 4, "reduce", "task", 500, 890),
      make_span(8, 7, "attempt", "attempt", 510, 880),
      make_span(9, 8, "local-skyline", "skyline", 520, 800),
  };
  spans[8].args.push_back({"dominance_tests", "140", true});
  return spans;
}

TEST(SelfTime, SelfIsDurationMinusChildren) {
  const SpanTree tree(pipeline_spans());
  EXPECT_EQ(tree.self_ns(1), 20);                      // 1000 - 980
  EXPECT_EQ(tree.self_ns(2), 980 - 100 - 700);         // orchestration
  EXPECT_EQ(tree.self_ns(4), 700 - 190 - 390);
  EXPECT_EQ(tree.self_ns(9), 280);                     // leaf
  EXPECT_EQ(tree.children(2), (std::vector<std::uint64_t>{3, 4}));
  EXPECT_EQ(tree.named("attempt"), (std::vector<std::uint64_t>{6, 8}));
}

TEST(SelfTime, RejectsMalformedSpanLists) {
  auto spans = pipeline_spans();
  spans[3].id = 9;
  EXPECT_THROW(SpanTree{spans}, std::invalid_argument);
  spans = pipeline_spans();
  spans[2].parent = 42;
  EXPECT_THROW(SpanTree{spans}, std::invalid_argument);
}

TEST(Closure, LayersSumToTheRootAndAttemptsJoinTheirTask) {
  const SpanTree tree(pipeline_spans());
  const auto layers = layer_seconds(tree, 1);
  double total = 0.0;
  for (const auto& [layer, s] : layers) total += s;
  EXPECT_NEAR(total, 1000e-9, 1e-15);
  EXPECT_NEAR(layers.at("unattributed"), 20e-9, 1e-15);
  EXPECT_NEAR(layers.at("mr.map"), 190e-9, 1e-15);           // map + its attempt
  EXPECT_NEAR(layers.at("mr.reduce_other"), 110e-9, 1e-15);  // reduce + attempt - kernel
  EXPECT_NEAR(layers.at("skyline.local"), 280e-9, 1e-15);
  EXPECT_NEAR(layers.at("core.self"), (180 + 120) * 1e-9, 1e-15);  // pipeline + job span
  EXPECT_TRUE(unknown_layer_seconds(tree).empty());
}

TEST(Closure, UnknownSpansAndZeroLayersFailTheAttributionCheck) {
  auto spans = pipeline_spans();
  spans[2].name = "partition-fit-renamed";  // a later rename the table does not know
  const SpanTree renamed(spans);
  const auto unknown = unknown_layer_seconds(renamed);
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_NEAR(unknown.at(std::string(kUnknownLayer) + "partition-fit-renamed"), 100e-9, 1e-15);

  RunResult lost;
  (void)record_pipeline_layers(renamed, {1}, lost);
  check_attribution(renamed, {"skyline.local_s"}, lost);
  EXPECT_EQ(lost.attempted, 1u);
  EXPECT_EQ(lost.failed, 1u);

  RunResult zero;  // known spans, but a layer the workload exercises reads 0
  const SpanTree tree(pipeline_spans());
  (void)record_pipeline_layers(tree, {1}, zero);
  check_attribution(tree, {"skyline.local_s", "skyline.merge_s"}, zero);
  EXPECT_EQ(zero.failed, 1u);

  RunResult complete;
  (void)record_pipeline_layers(tree, {1}, complete);
  check_attribution(tree, {"skyline.local_s", "partition.fit_s", "core.self_s"}, complete);
  EXPECT_EQ(complete.attempted, 1u);
  EXPECT_EQ(complete.failed, 0u);
}

TEST(Closure, PipelineLayersAreMediansOverRoots) {
  RunResult out;
  const SpanTree tree(pipeline_spans());
  const double unattributed = record_pipeline_layers(tree, {1}, out);
  EXPECT_NEAR(unattributed, 0.02, 1e-12);
  EXPECT_NEAR(out.values.at("partition.fit_s"), 100e-9, 1e-15);
  EXPECT_NEAR(out.values.at("skyline.local_s"), 280e-9, 1e-15);
  EXPECT_NEAR(out.values.at("skyline.ns_per_test"), 2.0, 1e-9);  // 280 ns / 140 tests
  EXPECT_DOUBLE_EQ(out.values.at("skyline.merge_s"), 0.0);
}

TEST(Closure, HoldsExactlyOnRecorderSpans) {
  TraceRecorder recorder;
  {
    ScopedSpan root(&recorder, "bench-job", "bench");
    ScopedSpan pipeline(&recorder, "mr-skyline", "pipeline");
    for (int i = 0; i < 3; ++i) {
      ScopedSpan task(&recorder, "map", "task");
      ScopedSpan attempt(&recorder, "attempt", "attempt");
    }
  }
  const SpanTree tree(recorder.spans());
  const std::uint64_t root = tree.named("bench-job").at(0);
  std::int64_t total_ns = 0;
  for (const TraceSpan& s : tree.spans()) total_ns += tree.self_ns(s.id);
  EXPECT_EQ(total_ns, SpanTree::duration_ns(tree.span(root)));
}

TEST(ResultLine, CarriesEveryMetricOfItsMode) {
  RunResult r;
  for (const auto& spec : metric_catalogue()) {
    if (!spec.per_layer) r.set(spec.name, 1.5);
  }
  r.check(true);
  r.check(false);
  const std::string line = result_json(r, false);
  EXPECT_EQ(line.rfind("{\"correct\": false, \"attempted\": 2, \"failed\": 1, \"metrics\": {", 0),
            0u);
  EXPECT_NE(line.find("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"), std::string::npos);
  EXPECT_EQ(line.find("trace.overhead_frac"), std::string::npos);

  const std::string traced = result_json(r, true);  // unmeasured layers read 0
  EXPECT_NE(traced.find("\"mr.spill_mb\": {\"value\": 0, \"unit\": \"MB\"}"), std::string::npos);
  EXPECT_EQ(traced.find("setup_s"), std::string::npos);
}

TEST(ResultLine, RefusesMissingOrUnknownMetrics) {
  RunResult r;
  EXPECT_THROW((void)result_json(r, false), std::logic_error);
  r.set("no.such.metric", 1.0);
  EXPECT_THROW((void)result_json(r, true), std::logic_error);
}

bool brute_dominates(std::span<const double> a, std::span<const double> b) {
  bool strictly = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    strictly = strictly || a[i] < b[i];
  }
  return strictly;
}

TEST(Oracle, ReferenceSkylineMatchesBruteForceWithTiesAndDuplicates) {
  mrsky::common::Rng rng(11);
  PointSet ps(3);
  for (PointId id = 0; id < 400; ++id) {
    // Coarse values force equal sums, ties and exact duplicates.
    const std::vector<double> p = {std::floor(rng.uniform() * 6), std::floor(rng.uniform() * 6),
                                   std::floor(rng.uniform() * 6)};
    ps.push_back(p, id);
  }
  PointSet brute(3);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    bool dominated = false;
    for (std::size_t j = 0; j < ps.size() && !dominated; ++j) {
      dominated = brute_dominates(ps.point(j), ps.point(i));
    }
    if (!dominated) brute.push_back(ps.point(i), ps.id(i));
  }
  const PointSet sky = reference_skyline(ps);
  EXPECT_EQ(sky.size(), brute.size());
  EXPECT_EQ(canonical_digest(sky), canonical_digest(brute));
  for (std::size_t i = 1; i < sky.size(); ++i) EXPECT_LT(sky.id(i - 1), sky.id(i));
}

TEST(Oracle, DigestIsOrderFreeAndBitExact) {
  PointSet a(2);
  a.push_back(std::vector<double>{0.25, 0.5}, 3);
  a.push_back(std::vector<double>{0.75, 0.125}, 1);
  PointSet b(2);
  b.push_back(std::vector<double>{0.75, 0.125}, 1);
  b.push_back(std::vector<double>{0.25, 0.5}, 3);
  EXPECT_EQ(canonical_digest(a), canonical_digest(b));

  PointSet c(2);
  c.push_back(std::vector<double>{0.75, 0.125}, 1);
  c.push_back(std::vector<double>{std::nextafter(0.25, 1.0), 0.5}, 3);  // one ulp off
  EXPECT_NE(canonical_digest(a), canonical_digest(c));
  EXPECT_NE(text_digest("[1,0.5]"), text_digest("[1,0.50]"));
}

TEST(Oracle, ReplicaRejectsGapsAndContradictions) {
  using Points = std::map<PointId, std::vector<double>>;
  SkylineReplica replica(5, Points{{1, {0.1, 0.9}}, {2, {0.9, 0.1}}});
  const std::uint64_t base = replica.digest();

  EXPECT_FALSE(replica.apply(7, {}, {}));                      // skips version 6
  EXPECT_FALSE(replica.apply(5, {}, {}));                      // repeats version 5
  EXPECT_FALSE(replica.apply(6, {9}, {}));                     // removes an unknown id
  EXPECT_FALSE(replica.apply(6, {}, Points{{2, {0.9, 0.1}}}));  // adds a held id
  EXPECT_EQ(replica.digest(), base);
  EXPECT_EQ(replica.version(), 5u);

  EXPECT_TRUE(replica.apply(6, {1}, Points{{4, {0.05, 0.95}}}));
  PointSet expected(2);
  expected.push_back(std::vector<double>{0.9, 0.1}, 2);
  expected.push_back(std::vector<double>{0.05, 0.95}, 4);
  EXPECT_EQ(replica.digest(), canonical_digest(expected));
}

TEST(Oracle, StreamModelFollowsTheDocumentedTickOrder) {
  PointSet base(1);
  base.push_back(std::vector<double>{0.5}, 4);
  base.push_back(std::vector<double>{0.25}, 2);
  StreamModel model(base);
  EXPECT_EQ(model.live().id(0), 2u);  // ascending ids, whatever the base order

  PointSet rows(1);
  rows.push_back(std::vector<double>{0.125});
  rows.push_back(std::vector<double>{0.75});
  model.apply(rows, {2, 0}, {});  // tick 1: ids 5 (TTL 2) and 6 (never expires)
  EXPECT_EQ(model.live_count(), 4u);
  model.apply(PointSet(1), {}, {4, 9});  // tick 2: 4 leaves, 9 is unknown
  EXPECT_EQ(model.deleted(), 1u);
  EXPECT_EQ(model.missing(), 1u);
  EXPECT_EQ(model.expired(), 0u);
  model.apply(PointSet(1), {}, {5});  // tick 3: 5 expires first, so its delete misses
  EXPECT_EQ(model.expired(), 1u);
  EXPECT_EQ(model.missing(), 2u);

  PointSet expected(1);
  expected.push_back(std::vector<double>{0.25}, 2);
  expected.push_back(std::vector<double>{0.75}, 6);
  EXPECT_EQ(canonical_digest(model.live()), canonical_digest(expected));
  EXPECT_EQ(model.tick(), 3u);
}

TEST(HostProbe, EveryRunRecordsAPositiveFactor) {
  HostProbe probe;
  const double first = probe.factor();
  EXPECT_GT(first, 0.0);
  EXPECT_TRUE(std::isfinite(first));
  (void)probe.factor();  // the compute part checks its fixed answer each time
  ASSERT_EQ(probe.factors().size(), 2u);
  EXPECT_DOUBLE_EQ(probe.factors()[0], first);
}

}  // namespace
}  // namespace perfbench
