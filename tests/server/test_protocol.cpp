// server wire protocol — request parsing across both syntaxes, response
// rendering, and the %.17g double round-trip the bitwise guarantee rests on.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <variant>
#include <vector>

#include "src/common/error.hpp"
#include "src/server/protocol.hpp"

namespace mrsky {
namespace {

using server::parse_request;
using server::Request;

constexpr std::size_t kDim = 4;

TEST(Protocol, BlankAndCommentLinesAreNoRequests) {
  EXPECT_FALSE(parse_request("", kDim).has_value());
  EXPECT_FALSE(parse_request("   \t  ", kDim).has_value());
  EXPECT_FALSE(parse_request("# a comment", kDim).has_value());
  EXPECT_FALSE(parse_request("   # indented comment", kDim).has_value());
}

TEST(Protocol, ParsesMrqSyntax) {
  const auto skyline = parse_request("skyline", kDim);
  ASSERT_TRUE(skyline.has_value());
  const auto& q = std::get<service::Query>(*skyline);
  EXPECT_TRUE(std::holds_alternative<service::SkylineQuery>(q));

  const auto skyband = parse_request("skyband 3", kDim);
  EXPECT_EQ(std::get<service::KSkybandQuery>(std::get<service::Query>(*skyband)).k, 3u);

  const auto insert = parse_request("insert extra.csv", kDim);
  EXPECT_EQ(std::get<service::InsertCommand>(*insert).path, "extra.csv");
}

TEST(Protocol, ParsesBareControlVerbs) {
  EXPECT_TRUE(std::holds_alternative<server::MetricsRequest>(*parse_request("metrics", kDim)));
  EXPECT_TRUE(std::holds_alternative<server::StatsRequest>(*parse_request("stats", kDim)));
  EXPECT_TRUE(std::holds_alternative<server::QuitRequest>(*parse_request("quit", kDim)));
}

TEST(Protocol, ParsesJsonQueries) {
  const auto skyline = parse_request(R"({"query":"skyline"})", kDim);
  EXPECT_TRUE(std::holds_alternative<service::SkylineQuery>(std::get<service::Query>(*skyline)));

  const auto subspace = parse_request(R"({"query":"subspace","attributes":[0,2]})", kDim);
  EXPECT_EQ(std::get<service::SubspaceQuery>(std::get<service::Query>(*subspace)).attributes,
            (std::vector<std::size_t>{0, 2}));

  const auto topk = parse_request(R"({"query":"topk","k":5,"weights":[0.25,0.25,0.25,0.25]})", kDim);
  const auto& tq = std::get<service::TopKWeightedQuery>(std::get<service::Query>(*topk));
  EXPECT_EQ(tq.k, 5u);
  EXPECT_EQ(tq.weights.size(), 4u);

  const auto rep = parse_request(R"({"query":"representative","k":7})", kDim);
  EXPECT_EQ(std::get<service::RepresentativeQuery>(std::get<service::Query>(*rep)).k, 7u);

  EXPECT_TRUE(std::holds_alternative<server::QuitRequest>(
      *parse_request(R"({"command":"quit"})", kDim)));
}

TEST(Protocol, ParsesJsonInserts) {
  const auto file = parse_request(R"({"insert":"extra.csv"})", kDim);
  EXPECT_EQ(std::get<service::InsertCommand>(*file).path, "extra.csv");

  const auto inline_rows = parse_request(R"({"insert":[[0.1,0.2,0.3,0.4],[1,2,3,4]]})", kDim);
  const auto& batch = std::get<server::InsertInline>(*inline_rows);
  ASSERT_EQ(batch.points.size(), 2u);
  EXPECT_EQ(batch.points.dim(), kDim);
  EXPECT_DOUBLE_EQ(batch.points.point(1)[2], 3.0);
}

TEST(Protocol, RejectsMalformedRequests) {
  // JSON problems surface as InvalidArgument — the session answers with an
  // error line instead of dropping the connection.
  EXPECT_THROW((void)parse_request(R"({"query":"warp"})", kDim), InvalidArgument);
  EXPECT_THROW((void)parse_request(R"({"insert":[[0.1,0.2]]})", kDim), InvalidArgument);  // dim
  EXPECT_THROW((void)parse_request(R"({"query":"skyband"})", kDim), InvalidArgument);  // no k
  EXPECT_THROW((void)parse_request(R"({"query":"skyband","k":2.5})", kDim), InvalidArgument);
  EXPECT_THROW((void)parse_request(R"({"nonsense":1})", kDim), InvalidArgument);
  EXPECT_THROW((void)parse_request("{broken json", kDim), InvalidArgument);
  EXPECT_THROW((void)parse_request("warp 9", kDim), InvalidArgument);
  EXPECT_THROW((void)parse_request(R"({"command":"reboot"})", kDim), InvalidArgument);
}

// Wire delete ids are PointIds: whole numbers in [0, 2^32 - 1]. A larger
// value used to be cut to 32 bits, so `[4294967296]` deleted row 0.
TEST(Protocol, DeleteIdsOutsidePointIdRangeFailTyped) {
  const auto ok = parse_request(R"({"delete":[0,7,4294967295]})", kDim);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(std::get<service::DeleteCommand>(*ok).ids,
            (std::vector<data::PointId>{0, 7, 4294967295u}));
  for (const char* bad : {R"({"delete":[4294967296]})", R"({"delete":[-1]})",
                          R"({"delete":[2.5]})", R"({"delete":[1e20]})",
                          R"({"delete":["3"]})"}) {
    EXPECT_THROW((void)parse_request(bad, kDim), InvalidArgument) << bad;
  }
}

TEST(Protocol, DoubleReprRoundTripsExactly) {
  const double values[] = {0.0,
                           -0.0,
                           1.0 / 3.0,
                           0.1 + 0.2,
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           -12345.678901234567};
  for (const double v : values) {
    const double back = std::strtod(server::double_repr(v).c_str(), nullptr);
    EXPECT_EQ(back, v) << server::double_repr(v);
  }
}

/// The wire text's reference: printf's `%.17g`, which every response has
/// always carried. Clients parse it; replays compare it byte for byte.
std::string printf_repr(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

TEST(Protocol, DoubleReprIsPrintfPrecision17) {
  // 17 significant digits, not the shortest round-tripping text: 0.1 keeps
  // its trailing ...01, and 1e16/1e17 switch to exponent form exactly where
  // %g does.
  EXPECT_EQ(server::double_repr(0.1), "0.10000000000000001");
  EXPECT_EQ(server::double_repr(1e16), "10000000000000000");
  EXPECT_EQ(server::double_repr(1e17), "1e+17");
  EXPECT_EQ(server::double_repr(-0.0), "-0");

  const double fixed[] = {0.0,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::lowest(),
                          0.1,
                          -0.1,
                          0.5,
                          1.0 / 3.0,
                          1e16,
                          1e17,
                          -1e17,
                          123456789012345678.0,
                          1e-5,
                          1e-4,
                          -12345.678901234567};
  for (const double v : fixed) EXPECT_EQ(server::double_repr(v), printf_repr(v)) << v;

  // Seeded sweep over random bit patterns: every exponent, both signs,
  // subnormals included (NaN and infinity are skipped; the wire never
  // carries them).
  std::uint64_t state = 0x2012'0521'0000'0017ull;  // splitmix64, fixed seed
  std::size_t compared = 0;
  std::size_t mismatches = 0;
  while (compared < 1'000'000) {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    const double v = std::bit_cast<double>(z ^ (z >> 31));
    if (!std::isfinite(v)) continue;
    ++compared;
    if (server::double_repr(v) != printf_repr(v) && ++mismatches <= 5) {
      ADD_FAILURE() << printf_repr(v) << " rendered as " << server::double_repr(v);
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// `[[id,c,...],...]` through printf, the reference for every point array.
std::string printf_points(const data::PointSet& points) {
  std::string out = "[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i > 0) out += ',';
    out += '[' + std::to_string(points.id(i));
    for (double c : points.point(i)) out += ',' + printf_repr(c);
    out += ']';
  }
  return out + ']';
}

/// Three points whose coordinates need all 17 digits, exponent form, a
/// subnormal, a negative zero and a large id.
data::PointSet wire_points() {
  data::PointSet ps(3);
  ps.push_back(std::vector<double>{0.1, 1.0 / 3.0, -0.0}, 7);
  ps.push_back(std::vector<double>{1e17, std::numeric_limits<double>::denorm_min(), 0.25}, 42);
  ps.push_back(std::vector<double>{-12345.678901234567, 1e-300, 2.0 / 3.0}, 4'000'000'000u);
  return ps;
}

TEST(Protocol, ResponseLinesMatchPrintfRendering) {
  const data::PointSet points = wire_points();
  const std::string pts = printf_points(points);

  service::QueryResult result;
  result.points = points;
  result.metrics.dataset_version = 9;
  result.metrics.cache_hit = true;
  result.metrics.dominance_tests = 12345678901ull;
  result.metrics.wall_ns = 987654321;
  result.metrics.result_points = 3;
  const std::string metrics =
      ",\"metrics\":{\"cache_hit\":true,\"fit_reused\":false,\"dominance_tests\":12345678901,"
      "\"wall_ns\":987654321,\"result_points\":3}}";

  EXPECT_EQ(server::result_line(service::Query{service::SkylineQuery{}}, result),
            "{\"ok\":true,\"kind\":\"skyline\",\"version\":9,\"points\":" + pts + metrics);

  result.coverage = {3, 0, 11};
  result.total_covered = 14;
  EXPECT_EQ(server::result_line(service::Query{service::RepresentativeQuery{3}}, result),
            "{\"ok\":true,\"kind\":\"representative\",\"version\":9,\"points\":" + pts +
                ",\"coverage\":[3,0,11],\"total_covered\":14" + metrics);

  service::QueryResult ranked;
  ranked.ranking = {{42, 0.1}, {7, 1.0 / 3.0}, {4'000'000'000u, 1e17}};
  ranked.metrics = result.metrics;
  const std::string ranking = "[[42," + printf_repr(0.1) + "],[7," + printf_repr(1.0 / 3.0) +
                              "],[4000000000," + printf_repr(1e17) + "]]";
  EXPECT_EQ(server::result_line(
                service::Query{service::TopKWeightedQuery{{0.5, 0.25, 0.25}, 3}}, ranked),
            "{\"ok\":true,\"kind\":\"top_k_weighted\",\"version\":9,\"ranking\":" + ranking +
                metrics);

  EXPECT_EQ(server::subscribed_line(5, points),
            "{\"ok\":true,\"event\":\"subscribed\",\"version\":5,\"skyline\":" + pts + "}");

  service::StreamDelta delta;
  delta.version = 6;
  delta.tick = 4;
  delta.inserted = 2;
  delta.deleted = 1;
  delta.expired = 3;
  delta.missing_deletes = 1;
  delta.entered = points;
  delta.left = {1, 2, 4'000'000'001u};
  EXPECT_EQ(server::delta_line(delta),
            "{\"ok\":true,\"event\":\"delta\",\"version\":6,\"tick\":4,\"inserted\":2,"
            "\"deleted\":1,\"expired\":3,\"missing\":1,\"entered\":" +
                pts + ",\"left\":[1,2,4000000001]}");

  // Empty payloads keep their brackets.
  EXPECT_EQ(server::subscribed_line(0, data::PointSet(2)),
            "{\"ok\":true,\"event\":\"subscribed\",\"version\":0,\"skyline\":[]}");
}

TEST(Protocol, ResponseBuildersEmitSingleLines) {
  const std::string err = server::error_line("bad \"quoted\" thing\nline2");
  EXPECT_EQ(err.find('\n'), std::string::npos);
  EXPECT_EQ(err.rfind("{\"ok\":false", 0), 0u);

  const std::string hello = server::hello_line(3, 7, 100, 4);
  EXPECT_NE(hello.find("\"session\":3"), std::string::npos);
  EXPECT_NE(hello.find("\"version\":7"), std::string::npos);

  EXPECT_NE(server::insert_line(16, 2).find("\"inserted\":16"), std::string::npos);
}

TEST(Protocol, ResultLineCarriesKindVersionAndPoints) {
  service::QueryResult result;
  result.points = data::PointSet(2);
  const std::vector<double> coords{0.5, 0.25};
  result.points.push_back(coords, 42);
  result.metrics.dataset_version = 9;
  result.metrics.result_points = 1;
  const std::string line =
      server::result_line(service::Query{service::SkylineQuery{}}, result);
  EXPECT_NE(line.find("\"kind\":\"skyline\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"version\":9"), std::string::npos) << line;
  EXPECT_NE(line.find("[42,0.5,0.25]"), std::string::npos) << line;
  EXPECT_NE(line.find("\"metrics\":{"), std::string::npos) << line;
}

TEST(Protocol, ParsesMrqDeadlineSuffix) {
  const auto bare = server::parse_request_line("skyline", kDim);
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->deadline_ms, -1);  // absent, not zero

  const auto skyband = server::parse_request_line("skyband 3 deadline=50", kDim);
  ASSERT_TRUE(skyband.has_value());
  EXPECT_EQ(skyband->deadline_ms, 50);
  EXPECT_EQ(std::get<service::KSkybandQuery>(std::get<service::Query>(skyband->request)).k, 3u);

  const auto zero = server::parse_request_line("skyline deadline=0", kDim);
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(zero->deadline_ms, 0);  // 0 = expired on arrival, distinct from absent

  // Control verbs take a deadline token too (it is simply unused).
  const auto stats = server::parse_request_line("stats deadline=10", kDim);
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(std::holds_alternative<server::StatsRequest>(stats->request));
  EXPECT_EQ(stats->deadline_ms, 10);
}

TEST(Protocol, ParsesJsonDeadlineKey) {
  const auto q = server::parse_request_line(R"({"query":"skyline","deadline_ms":250})", kDim);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->deadline_ms, 250);
  EXPECT_TRUE(std::holds_alternative<service::SkylineQuery>(std::get<service::Query>(q->request)));

  const auto absent = server::parse_request_line(R"({"query":"skyline"})", kDim);
  ASSERT_TRUE(absent.has_value());
  EXPECT_EQ(absent->deadline_ms, -1);

  EXPECT_THROW((void)server::parse_request_line(R"({"query":"skyline","deadline_ms":-5})", kDim),
               InvalidArgument);
  EXPECT_THROW((void)server::parse_request_line(R"({"query":"skyline","deadline_ms":1.5})", kDim),
               InvalidArgument);
}

TEST(Protocol, MalformedDeadlineSuffixIsAnError) {
  // A dangling `deadline=` or garbage value must not silently parse as a
  // query argument for the script grammar to trip over later.
  EXPECT_THROW((void)server::parse_request_line("skyline deadline=abc", kDim), std::exception);
  EXPECT_THROW((void)server::parse_request_line("deadline=5", kDim), std::exception);
}

TEST(Protocol, OversizedRequestRejectedBeforeParsing) {
  const std::string big = "{\"query\":\"skyline\",\"pad\":\"" + std::string(4096, 'x') + "\"}";
  try {
    (void)server::parse_request_line(big, kDim, 256);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    // The diagnostic names both sizes and the byte offset of the cap — the
    // client can see exactly where its line crossed the line.
    EXPECT_NE(what.find(std::to_string(big.size())), std::string::npos) << what;
    EXPECT_NE(what.find("byte offset 256"), std::string::npos) << what;
  }
  // Under the cap: parses normally.
  EXPECT_TRUE(server::parse_request_line(R"({"query":"skyline"})", kDim, 256).has_value());
}

TEST(Protocol, CancelledAndShedLinesAreStructured) {
  const std::string deadline = server::cancelled_line("deadline expired in merge round 2", true);
  EXPECT_EQ(deadline.rfind("{\"ok\":false", 0), 0u) << deadline;
  EXPECT_NE(deadline.find("\"cancelled\":true"), std::string::npos) << deadline;
  EXPECT_NE(deadline.find("\"reason\":\"deadline\""), std::string::npos) << deadline;

  const std::string cancel = server::cancelled_line("server draining", false);
  EXPECT_NE(cancel.find("\"reason\":\"cancelled\""), std::string::npos) << cancel;

  const std::string shed = server::shed_line(8, 25);
  EXPECT_NE(shed.find("capacity"), std::string::npos) << shed;
  EXPECT_NE(shed.find("\"shed\":true"), std::string::npos) << shed;
  EXPECT_NE(shed.find("\"retry_after_ms\":25"), std::string::npos) << shed;
  EXPECT_EQ(shed.find('\n'), std::string::npos);
}

// Seeded random-bytes fuzz over the protocol surface (ISSUE 7 satellite).
// Every input — pure noise, noise with a JSON prefix, or a mutated valid
// request — must either parse or throw a typed error. No crash, no hang, no
// uncontained exception type: the session layer turns exactly these throws
// into one error line per malformed input.
TEST(ProtocolFuzz, RandomBytesNeverEscapeTypedErrors) {
  std::uint64_t state = 0x9E3779B97F4A7C15ull;  // splitmix64, fixed seed
  const auto next = [&state]() {
    state += 0x9E3779B97F4A7C15ull;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  };
  const std::vector<std::string> seeds = {
      "skyline", "skyband 3", "subspace 0,2", "topk 5 0.5,0.5,0.5,0.5",
      R"({"query":"skyline"})", R"({"query":"skyband","k":3,"deadline_ms":10})",
      R"({"insert":[[0.1,0.2,0.3,0.4]]})", "skyline deadline=25", "stats", "metrics"};
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (std::size_t iter = 0; iter < 3000; ++iter) {
    std::string line;
    const std::uint64_t mode = next() % 3;
    if (mode == 0) {
      // Pure random bytes (newline excluded — the framing layer owns it).
      const std::size_t len = next() % 128;
      for (std::size_t i = 0; i < len; ++i) {
        char c = static_cast<char>(next() & 0xFF);
        if (c == '\n') c = ' ';
        line.push_back(c);
      }
    } else if (mode == 1) {
      // Random bytes behind a JSON-ish prefix: exercises the DOM parser.
      line = "{\"query\":";
      const std::size_t len = next() % 64;
      for (std::size_t i = 0; i < len; ++i) {
        char c = static_cast<char>(next() & 0xFF);
        if (c == '\n') c = ' ';
        line.push_back(c);
      }
    } else {
      // Mutate a valid request: flip, insert, or truncate.
      line = seeds[next() % seeds.size()];
      const std::uint64_t op = next() % 3;
      if (op == 0 && !line.empty()) {
        line[next() % line.size()] = static_cast<char>(next() & 0x7F);
      } else if (op == 1) {
        line.insert(line.begin() + static_cast<std::ptrdiff_t>(next() % (line.size() + 1)),
                    static_cast<char>(next() & 0x7F));
      } else if (!line.empty()) {
        line.resize(next() % line.size());
      }
    }
    try {
      const auto envelope = server::parse_request_line(line, kDim, 512);
      if (envelope.has_value()) {
        ++parsed;
        EXPECT_GE(envelope->deadline_ms, -1);
      }
    } catch (const InvalidArgument&) {
      ++rejected;  // typed rejection: exactly what the session contains
    } catch (const RuntimeError&) {
      ++rejected;
    }
    // Anything else (std::bad_alloc, segfault, std::logic_error...) escapes
    // and fails the test — that is the point.
  }
  // The corpus genuinely exercises both paths.
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 100u);
}

}  // namespace
}  // namespace mrsky
