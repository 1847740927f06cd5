// server::PointsMemo, the rendered points arrays a server reuses across reads
// (DESIGN.md decision 22): reuse by ids and coordinate bits, the byte budget,
// and, through sessions, payloads that equal a single-threaded replay's
// result_line: over one seeded write/read stream, and with readers racing a
// writer. Each session test also counts the traps its stream holds (repeated
// answers, same ids with other bits, other ids), so it fails a memo that
// reuses by signature alone or compares ids but not bits.
#include "src/server/points_memo.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/dataset/generators.hpp"
#include "src/server/protocol.hpp"
#include "src/server/session.hpp"
#include "src/service/query_engine.hpp"
#include "src/skyline/extensions.hpp"

namespace mrsky {
namespace {

using server::PointsMemo;

data::PointSet rows(std::size_t n, std::size_t dim, std::uint64_t seed) {
  return data::generate(data::Distribution::kIndependent, n, dim, seed);
}

/// Same dim, ids and coordinate bits, in the same order.
bool same_bits(const data::PointSet& a, const data::PointSet& b) {
  return a.dim() == b.dim() && a.size() == b.size() &&
         (a.empty() || (std::memcmp(a.ids().data(), b.ids().data(), a.ids().size_bytes()) == 0 &&
                        std::memcmp(a.raw().data(), b.raw().data(), a.raw().size_bytes()) == 0));
}

bool same_ids(const data::PointSet& a, const data::PointSet& b) {
  return a.size() == b.size() && std::equal(a.ids().begin(), a.ids().end(), b.ids().begin());
}

// ---------------------------------------------------------------------------
// The memo alone
// ---------------------------------------------------------------------------

TEST(PointsMemo, EqualIdsAndBitsReuseTheText) {
  PointsMemo memo;
  const data::PointSet sky = rows(50, 4, 1);
  const auto first = memo.text("skyline", sky);
  EXPECT_EQ(*first, server::points_text(sky));
  const data::PointSet copy = sky;  // another object, the same bits
  EXPECT_EQ(memo.text("skyline", copy).get(), first.get());
  EXPECT_EQ(memo.entries(), 1u);

  // Another signature keeps its own entry, even for the same answer.
  const auto band = memo.text("k_skyband:1", copy);
  EXPECT_NE(band.get(), first.get());
  EXPECT_EQ(*band, *first);
  EXPECT_EQ(memo.entries(), 2u);

  const data::PointSet empty(4);
  EXPECT_EQ(*memo.text("subspace:0,1", empty), "[]");
  EXPECT_EQ(memo.text("subspace:0,1", data::PointSet(4)).get(),
            memo.text("subspace:0,1", empty).get());
}

TEST(PointsMemo, SameIdsWithOtherBitsRenderAgain) {
  PointsMemo memo;
  const auto answer = [](double first_coord, double last_coord) {
    data::PointSet ps(3);
    ps.push_back(std::vector<double>{first_coord, 0.5, 0.25}, 4);
    ps.push_back(std::vector<double>{0.75, 0.125, last_coord}, 9);
    return ps;
  };
  const data::PointSet plus = answer(0.0, 0.375);
  const auto plus_text = memo.text("skyline", plus);
  EXPECT_EQ(*plus_text, "[[4,0,0.5,0.25],[9,0.75,0.125,0.375]]");

  // +0.0 -> -0.0: equal as doubles, `-0` on the wire.
  const data::PointSet minus = answer(-0.0, 0.375);
  ASSERT_TRUE(minus.point(0)[0] == plus.point(0)[0]);
  const auto minus_text = memo.text("skyline", minus);
  EXPECT_NE(minus_text.get(), plus_text.get());
  EXPECT_EQ(*minus_text, "[[4,-0,0.5,0.25],[9,0.75,0.125,0.375]]");

  // One ulp in the last coordinate of the last point.
  const data::PointSet nudged = answer(-0.0, std::nextafter(0.375, 1.0));
  const auto nudged_text = memo.text("skyline", nudged);
  EXPECT_NE(nudged_text.get(), minus_text.get());
  EXPECT_EQ(*nudged_text, server::points_text(nudged));

  // The entry holds the last answer only: +0.0 renders again, to its own text.
  const auto again = memo.text("skyline", plus);
  EXPECT_NE(again.get(), plus_text.get());
  EXPECT_EQ(*again, *plus_text);
  EXPECT_EQ(memo.entries(), 1u);

  // Other ids, other sizes and other dims render again too.
  const data::PointSet renumbered(3, std::vector<double>(plus.raw().begin(), plus.raw().end()),
                                  std::vector<data::PointId>{4, 10});
  EXPECT_EQ(*memo.text("skyline", renumbered), "[[4,0,0.5,0.25],[10,0.75,0.125,0.375]]");
  EXPECT_EQ(*memo.text("skyline", plus.select(std::vector<std::size_t>{0})),
            "[[4,0,0.5,0.25]]");
  const data::PointSet flat(2, {0.0, 0.5, 0.25, 0.75}, {4, 9});
  EXPECT_EQ(*memo.text("skyline", flat), "[[4,0,0.5],[9,0.25,0.75]]");
}

TEST(PointsMemo, RepresentativePickOrderRoundTrips) {
  PointsMemo memo;
  const data::PointSet registry = rows(300, 3, 5);
  service::QueryResult rep;
  skyline::RepresentativeResult picked = skyline::representative_skyline(registry, 4);
  ASSERT_GE(picked.representatives.size(), 2u);
  rep.points = picked.representatives;
  rep.coverage = picked.coverage;
  rep.total_covered = picked.total_covered;
  rep.metrics.result_points = rep.points.size();
  const service::Query query{service::RepresentativeQuery{4}};

  // Twice through the memo, byte for byte the plain line, in pick order.
  const std::string plain = server::result_line(query, rep);
  EXPECT_EQ(server::result_line(query, rep, memo), plain);
  EXPECT_EQ(server::result_line(query, rep, memo), plain);
  const std::string signature = service::query_signature(query);
  const auto kept = memo.text(signature, rep.points);
  EXPECT_EQ(*kept, server::points_text(picked.representatives));

  // The same picks in another order are another answer.
  std::vector<std::size_t> reversed(rep.points.size());
  for (std::size_t i = 0; i < reversed.size(); ++i) reversed[i] = reversed.size() - 1 - i;
  service::QueryResult flipped = rep;
  flipped.points = rep.points.select(reversed);
  const std::string flipped_line = server::result_line(query, flipped, memo);
  EXPECT_EQ(flipped_line, server::result_line(query, flipped));
  EXPECT_NE(flipped_line, plain);
  EXPECT_NE(memo.text(signature, flipped.points).get(), kept.get());
}

TEST(PointsMemo, ResultAndSubscribedLinesKeepTheirBytes) {
  PointsMemo memo;
  data::PointSet points(3);
  points.push_back(std::vector<double>{0.1, 1.0 / 3.0, -0.0}, 7);
  points.push_back(std::vector<double>{1e17, 5e-324, 0.25}, 42);
  service::QueryResult result;
  result.points = points;
  result.metrics.dataset_version = 9;
  result.metrics.cache_hit = true;
  result.metrics.wall_ns = 1234;
  result.metrics.result_points = 2;
  for (const service::Query& query :
       {service::Query{service::SkylineQuery{}}, service::Query{service::SubspaceQuery{{0, 2}}},
        service::Query{service::KSkybandQuery{2}}}) {
    EXPECT_EQ(server::result_line(query, result, memo), server::result_line(query, result));
    EXPECT_EQ(server::result_line(query, result, memo), server::result_line(query, result));
  }
  service::QueryResult ranked;
  ranked.ranking = {{42, 0.1}, {7, 1.0 / 3.0}};
  const service::Query topk{service::TopKWeightedQuery{{0.5, 0.25, 0.25}, 2}};
  EXPECT_EQ(server::result_line(topk, ranked, memo), server::result_line(topk, ranked));
  EXPECT_EQ(memo.entries(), 3u);  // a ranking is not a points array

  // A subscription's base shares the skyline query's entry.
  EXPECT_EQ(server::subscribed_line(5, points, memo), server::subscribed_line(5, points));
  EXPECT_EQ(server::subscribed_line(0, data::PointSet(3), memo),
            "{\"ok\":true,\"event\":\"subscribed\",\"version\":0,\"skyline\":[]}");
  EXPECT_EQ(memo.entries(), 3u);
}

TEST(PointsMemo, EvictionKeepsWithinTheByteBudget) {
  PointsMemo memo;
  const data::PointSet big = rows(3000, 4, 7);  // ≈ 0.35 MB an entry
  const auto hot = memo.text("hot", big);
  const std::size_t entry_bytes = memo.bytes();
  ASSERT_GT(entry_bytes, 0u);
  ASSERT_LT(entry_bytes * 4, PointsMemo::kBudgetBytes);

  // Held, so no render can land at an evicted text's address.
  std::vector<std::shared_ptr<const std::string>> cold;
  const std::size_t signatures = 2 * PointsMemo::kBudgetBytes / entry_bytes;
  for (std::size_t i = 0; i < signatures; ++i) {
    cold.push_back(memo.text("cold" + std::to_string(i), big));
    EXPECT_LE(memo.bytes(), PointsMemo::kBudgetBytes);
    EXPECT_EQ(memo.text("hot", big).get(), hot.get()) << "the hot entry was evicted at " << i;
  }
  EXPECT_LT(memo.entries(), signatures);
  EXPECT_GT(memo.bytes(), PointsMemo::kBudgetBytes - 2 * entry_bytes);
  // The least recently used went first: the newest cold entry stayed, the
  // oldest did not.
  EXPECT_EQ(memo.text("cold" + std::to_string(signatures - 1), big).get(), cold.back().get());
  EXPECT_NE(memo.text("cold0", big).get(), cold.front().get());
}

TEST(PointsMemo, OversizedAnswerIsServedNotKept) {
  PointsMemo memo;
  (void)memo.text("k_skyband:9", rows(10, 4, 9));
  const data::PointSet huge = rows(50'000, 4, 11);
  const std::string rendered = server::points_text(huge);
  ASSERT_GT(rendered.size() + huge.raw().size_bytes(), PointsMemo::kBudgetBytes);
  const auto text = memo.text("k_skyband:9", huge);
  EXPECT_EQ(*text, rendered);
  // Not kept, and the entry it replaced is gone.
  EXPECT_EQ(memo.entries(), 0u);
  EXPECT_EQ(memo.bytes(), 0u);
  EXPECT_NE(memo.text("k_skyband:9", huge).get(), text.get());
  // A small answer under the same signature is kept again.
  (void)memo.text("k_skyband:9", rows(10, 4, 9));
  EXPECT_EQ(memo.entries(), 1u);
}

// ---------------------------------------------------------------------------
// Sessions against a single-threaded replay
// ---------------------------------------------------------------------------

constexpr std::size_t kDim = 3;
constexpr data::PointId kAnchorId = 0;

/// A registry of `n` anticorrelated rows (ids 1..n) plus an anchor row, id 0,
/// whose first coordinate is `zero` (+0.0 or -0.0). The anchor is on every
/// skyline: no row of the registry or of the inserts has a first coordinate
/// of zero. Two registries that differ in the sign only give answers with the
/// same ids and other bits.
data::PointSet anchored_registry(double zero, std::size_t n = 200) {
  const data::PointSet gen = data::generate(data::Distribution::kAnticorrelated, n, kDim, 61);
  data::PointSet ps(kDim);
  ps.push_back(std::vector<double>{zero, 0.9, 0.9}, kAnchorId);
  for (std::size_t i = 0; i < gen.size(); ++i) ps.push_back(gen.point(i), gen.id(i) + 1);
  return ps;
}

/// Hand-built rows where two skyline members share id 5; `swapped` lists
/// them in the other order. Writes fail typed on such rows.
data::PointSet shared_id_rows(bool swapped) {
  const std::vector<double> a{0.2, 0.6, 0.5};
  const std::vector<double> b{0.6, 0.2, 0.5};
  data::PointSet ps(kDim);
  ps.push_back(swapped ? b : a, 5);
  ps.push_back(swapped ? a : b, 5);
  ps.push_back(std::vector<double>{0.4, 0.4, 0.1}, 6);
  ps.push_back(std::vector<double>{0.9, 0.9, 0.9}, 7);
  ps.push_back(std::vector<double>{0.3, 0.7, 0.6}, 8);
  ps.push_back(std::vector<double>{0.7, 0.3, 0.55}, 9);
  return ps;
}

/// An inline insert line, every coordinate in its wire text.
std::string insert_request(const data::PointSet& batch, std::int64_t ttl_ticks) {
  std::string line = "{\"insert\":[";
  for (std::size_t i = 0; i < batch.size(); ++i) {
    line += i > 0 ? ",[" : "[";
    for (std::size_t a = 0; a < batch.dim(); ++a) {
      if (a > 0) line += ',';
      line += server::double_repr(batch.at(i, a));
    }
    line += "]";
  }
  line += "]";
  if (ttl_ticks > 0) line += ",\"ttl_ticks\":" + std::to_string(ttl_ticks);
  return line + "}";
}

/// `n` rows whose first coordinate is above zero: in [0.05, 1) when `dominated`
/// is false, in [0.91, 1) (below the anchor in every attribute) when true.
data::PointSet insert_rows(common::Rng& rng, std::size_t n, bool dominated) {
  data::PointSet batch(kDim);
  std::vector<double> row(kDim);
  for (std::size_t i = 0; i < n; ++i) {
    for (double& c : row) c = dominated ? rng.uniform(0.91, 1.0) : rng.uniform(0.05, 1.0);
    batch.push_back(row);
  }
  return batch;
}

/// The write line the schedule sends next: inserts that stay below the
/// skyline or may join it, with or without a TTL, deletes of random ids and
/// of a skyline member. The anchor is never deleted.
std::string next_write(common::Rng& rng, const data::PointSet& skyline, std::size_t ids_issued) {
  switch (rng.uniform_index(5)) {
    case 0: return insert_request(insert_rows(rng, 3, /*dominated=*/true), 0);
    case 1: return insert_request(insert_rows(rng, 2, /*dominated=*/false), 0);
    case 2: return insert_request(insert_rows(rng, 2, /*dominated=*/false), 3);
    case 3: {
      const auto id = 1 + rng.uniform_index(ids_issued - 1);
      return "{\"delete\":[" + std::to_string(id) + "," + std::to_string(id + 1) + "]}";
    }
    default: {
      data::PointId id = kAnchorId;
      for (int tries = 0; tries < 8 && id == kAnchorId; ++tries) {
        id = skyline.id(rng.uniform_index(skyline.size()));
      }
      return "delete " + std::to_string(id == kAnchorId ? ids_issued + 1000 : id);
    }
  }
}

/// The reads of the stream: every kind that returns points, and top-k.
const std::vector<std::string> kReads = {
    "skyline",   "skyline",          R"({"query":"skyline"})", "subspace 0,1", "subspace 1,2",
    "skyband 2", "representative 3", "topk 3 0.5,0.25,0.25"};

/// A response line up to its per-request metrics.
std::string payload(const std::string& line) {
  const std::size_t pos = line.rfind(",\"metrics\":");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

std::uint64_t version_of(const std::string& line) {
  const std::size_t pos = line.find("\"version\":");
  return pos == std::string::npos ? ~std::uint64_t{0} : std::stoull(line.substr(pos + 10));
}

/// The response a Session must give to the write `request`, applied to
/// `replay` the way the Session applies it.
std::string replay_write(service::QueryEngine& replay, const server::Request& request) {
  if (const auto* insert = std::get_if<server::InsertInline>(&request)) {
    if (insert->ttl_ticks == 0) {
      return server::insert_line(insert->points.size(), replay.insert_batch(insert->points));
    }
    service::MutationBatch batch;
    batch.inserts = insert->points;
    batch.ttl_ticks.assign(insert->points.size(), insert->ttl_ticks);
    return server::insert_line(insert->points.size(), replay.apply_batch(batch).snapshot->version);
  }
  service::MutationBatch batch;
  batch.deletes = std::get<service::DeleteCommand>(request).ids;
  return server::delete_line(replay.apply_batch(batch).delta);
}

/// What a memo that keeps each signature's last answer meets, read by read:
/// the same answer again, the same ids with other bits, or other ids. A
/// stream without the second kind passes a memo that compares ids only; one
/// without the third passes a memo keyed on the signature alone.
struct TrapCount {
  std::map<std::string, data::PointSet> last;
  std::size_t repeats = 0;
  std::size_t same_ids_other_bits = 0;
  std::size_t other_ids = 0;

  void see(const std::string& signature, const data::PointSet& answer) {
    const auto it = last.find(signature);
    if (it != last.end()) {
      if (same_bits(it->second, answer)) {
        ++repeats;
      } else if (same_ids(it->second, answer)) {
        ++same_ids_other_bits;
      } else {
        ++other_ids;
      }
    }
    last.insert_or_assign(signature, answer);
  }
};

/// A session with the engine it talks to and a single-threaded replay of its
/// requests from the same rows.
struct Replayed {
  Replayed(const data::PointSet& rows, std::uint64_t id, std::shared_ptr<PointsMemo> memo)
      : engine(rows, {}),
        replay(rows, {}),
        session(id, engine, server::SessionOptions{}, {}, std::move(memo)) {}

  service::QueryEngine engine;
  service::QueryEngine replay;
  server::Session session;
};

/// Sends `line` to `r` and checks the response against the replay: a write
/// gives the replay's acknowledgement (or fails on both), a read the
/// replay's payload at the same version, `subscribe` the replay's skyline.
void send_and_check(Replayed& r, const std::string& line, TrapCount& traps) {
  bool quit = false;
  const std::string response = r.session.handle_line(line, quit);
  const std::optional<server::RequestEnvelope> parsed = server::parse_request_line(line, kDim);
  ASSERT_TRUE(parsed.has_value()) << line;
  const server::Request& request = parsed->request;
  if (const auto* query = std::get_if<service::Query>(&request)) {
    const service::QueryResult answer = r.replay.execute(*query);
    EXPECT_EQ(payload(response), payload(server::result_line(*query, answer))) << line;
    if (!std::holds_alternative<service::TopKWeightedQuery>(*query)) {
      traps.see(service::query_signature(*query), answer.points);
    }
    return;
  }
  if (std::holds_alternative<server::SubscribeRequest>(request)) {
    const data::PointSet sky = r.replay.execute(service::SkylineQuery{}).points;
    EXPECT_EQ(response, server::subscribed_line(r.replay.version(), sky));
    traps.see(service::query_signature(service::SkylineQuery{}), sky);
    EXPECT_EQ(r.session.handle_line("unsubscribe", quit), server::unsubscribed_line());
    return;
  }
  std::string expected;
  try {
    expected = replay_write(r.replay, request);
  } catch (const InvalidArgument&) {
    EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u) << response;
    return;
  }
  EXPECT_EQ(response, expected) << line;
}

TEST(SessionMemo, PayloadsMatchTheReplayThroughWritesAndReads) {
  // Four sessions share one memo, as a server's do: two registries that
  // differ only in the anchor's sign bit and take the same writes, and two
  // read-only sets whose skyline members share an id, listed in either order.
  const auto memo = std::make_shared<PointsMemo>();
  Replayed plus(anchored_registry(0.0), 1, memo);
  Replayed minus(anchored_registry(-0.0), 2, memo);
  Replayed shared(shared_id_rows(false), 3, memo);
  Replayed swapped(shared_id_rows(true), 4, memo);
  Replayed* const sessions[] = {&plus, &minus, &shared, &swapped};

  TrapCount traps;
  common::Rng rng(0x5e55'10a1);
  std::size_t ids_issued = plus.engine.snapshot()->dataset->size();
  std::size_t writes_changing = 0;
  std::size_t writes_keeping = 0;
  for (std::size_t step = 0; step < 240; ++step) {
    const std::uint64_t roll = rng.uniform_index(20);
    if (roll < 5) {
      const data::PointSet before = plus.replay.execute(service::SkylineQuery{}).points;
      const std::string write = next_write(rng, before, ids_issued);
      send_and_check(plus, write, traps);
      send_and_check(minus, write, traps);
      ids_issued += 3;
      const data::PointSet after = plus.replay.execute(service::SkylineQuery{}).points;
      ++(same_bits(before, after) ? writes_keeping : writes_changing);
    } else if (roll == 5) {
      send_and_check(*sessions[rng.uniform_index(4)], "subscribe", traps);
    } else if (roll == 6) {
      send_and_check(*sessions[2 + rng.uniform_index(2)], "delete 6", traps);
    } else {
      send_and_check(*sessions[rng.uniform_index(4)], kReads[rng.uniform_index(kReads.size())],
                     traps);
    }
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(plus.engine.version(), plus.replay.version());
  EXPECT_EQ(shared.engine.version(), 0u);
  EXPECT_GT(writes_changing, 5u);
  EXPECT_GT(writes_keeping, 5u);
  EXPECT_GT(traps.repeats, 20u);
  EXPECT_GT(traps.same_ids_other_bits, 5u);
  EXPECT_GT(traps.other_ids, 5u);
}

TEST(SessionMemoConcurrency, ReadersRacingAWriterMatchTheReplayAtTheirVersion) {
  // Two registries that differ only in the anchor's sign bit, each with a
  // writer session and two reader sessions; all six share one memo.
  const data::PointSet bases[2] = {anchored_registry(0.0, 120), anchored_registry(-0.0, 120)};
  service::QueryEngine engines[2] = {service::QueryEngine(bases[0], {}),
                                     service::QueryEngine(bases[1], {})};
  const auto memo = std::make_shared<PointsMemo>();

  constexpr std::size_t kWrites = 24;
  std::vector<std::string> writes;
  {
    common::Rng rng(0xc0c0'2012);
    service::QueryEngine model(bases[0], {});
    std::size_t ids_issued = bases[0].size();
    for (std::size_t w = 0; w < kWrites; ++w) {
      writes.push_back(next_write(rng, model.execute(service::SkylineQuery{}).points, ids_issued));
      (void)replay_write(model, server::parse_request_line(writes.back(), kDim)->request);
      ids_issued += 3;
    }
  }

  struct Seen {
    std::size_t engine;
    std::size_t read;
    std::string response;
  };
  std::mutex seen_mutex;
  std::vector<Seen> seen;
  std::atomic<std::size_t> reads_done{0};
  std::atomic<bool> writing{true};

  std::vector<std::thread> readers;
  for (std::size_t r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      const std::size_t e = r % 2;
      server::Session session(10 + r, engines[e], server::SessionOptions{}, {}, memo);
      std::vector<Seen> mine;
      bool quit = false;
      for (std::size_t i = r; writing.load() || i < r + 2 * kReads.size(); ++i) {
        const std::size_t read = i % kReads.size();
        mine.push_back({e, read, session.handle_line(kReads[read], quit)});
        reads_done.fetch_add(1);
      }
      const std::lock_guard<std::mutex> lock(seen_mutex);
      seen.insert(seen.end(), mine.begin(), mine.end());
    });
  }
  {
    server::Session writer0(1, engines[0], server::SessionOptions{}, {}, memo);
    server::Session writer1(2, engines[1], server::SessionOptions{}, {}, memo);
    bool quit = false;
    for (const std::string& write : writes) {
      // Let the readers read at every version before the next write.
      const std::size_t target = reads_done.load() + 12;
      const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (reads_done.load() < target && std::chrono::steady_clock::now() < give_up) {
        std::this_thread::yield();
      }
      EXPECT_EQ(writer0.handle_line(write, quit).rfind("{\"ok\":true", 0), 0u) << write;
      EXPECT_EQ(writer1.handle_line(write, quit).rfind("{\"ok\":true", 0), 0u) << write;
    }
    writing.store(false);
  }
  for (std::thread& t : readers) t.join();

  // Replay both registries write by write; every payload seen at a version
  // must equal the replay's there. At every version the two skylines have
  // the same ids and other bits, and the writes change the ids now and then.
  std::map<std::uint64_t, std::vector<const Seen*>> by_version[2];
  for (const Seen& s : seen) by_version[s.engine][version_of(s.response)].push_back(&s);
  service::QueryEngine replays[2] = {service::QueryEngine(bases[0], {}),
                                     service::QueryEngine(bases[1], {})};
  std::size_t checked = 0;
  std::size_t twin_versions = 0;
  std::size_t changed_versions = 0;
  data::PointSet last_skyline(kDim);
  for (std::size_t w = 0;; ++w) {
    const data::PointSet sky[2] = {replays[0].execute(service::SkylineQuery{}).points,
                                   replays[1].execute(service::SkylineQuery{}).points};
    if (same_ids(sky[0], sky[1]) && !same_bits(sky[0], sky[1])) ++twin_versions;
    if (w > 0 && !same_ids(last_skyline, sky[0])) ++changed_versions;
    last_skyline = sky[0];
    for (std::size_t e = 0; e < 2; ++e) {
      for (const Seen* s : by_version[e][replays[e].version()]) {
        const server::Request request =
            server::parse_request_line(kReads[s->read], kDim)->request;
        const service::Query& query = std::get<service::Query>(request);
        EXPECT_EQ(payload(s->response),
                  payload(server::result_line(query, replays[e].execute(query))))
            << "registry " << e << ", " << kReads[s->read];
        ++checked;
      }
    }
    if (w == kWrites) break;
    for (service::QueryEngine& replay : replays) {
      (void)replay_write(replay, server::parse_request_line(writes[w], kDim)->request);
    }
  }
  EXPECT_EQ(checked, seen.size()) << "responses at a version the writes never made";
  EXPECT_EQ(twin_versions, kWrites + 1);
  EXPECT_GT(changed_versions, kWrites / 4);
}

}  // namespace
}  // namespace mrsky
