// server::Session (transport-free) and server::SkylineServer (real loopback
// TCP) — the multi-session serving layer over one shared QueryEngine:
// greeting, request/response across both syntaxes, error containment,
// admission control, per-session metrics, and connect/disconnect churn
// against concurrent inserts (ISSUE 6 tentpole).
#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "src/dataset/block_store.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/io.hpp"
#include "src/server/client.hpp"
#include "src/server/server.hpp"
#include "src/server/session.hpp"
#include "src/service/query_engine.hpp"
#include "src/skyline/algorithms.hpp"

namespace mrsky {
namespace {

data::PointSet workload(std::size_t n = 250, std::size_t dim = 3, std::uint64_t seed = 42) {
  return data::generate(data::Distribution::kAnticorrelated, n, dim, seed);
}

bool ok(const std::string& response) { return response.rfind("{\"ok\":true", 0) == 0; }

std::string strip_metrics(const std::string& response) {
  const std::size_t pos = response.rfind(",\"metrics\":");
  return pos == std::string::npos ? response : response.substr(0, pos) + "}";
}

TEST(Session, GreetingDescribesSnapshot) {
  service::QueryEngine engine(workload(), {});
  server::Session session(7, engine, "");
  const std::string hello = session.greeting();
  EXPECT_NE(hello.find("\"session\":7"), std::string::npos) << hello;
  EXPECT_NE(hello.find("\"version\":0"), std::string::npos) << hello;
  EXPECT_NE(hello.find("\"points\":250"), std::string::npos) << hello;
  EXPECT_NE(hello.find("\"dim\":3"), std::string::npos) << hello;
}

TEST(Session, AnswersQueriesInBothSyntaxes) {
  service::QueryEngine engine(workload(), {});
  server::Session session(1, engine, "");
  bool quit = false;
  const std::string mrq = session.handle_line("skyline", quit);
  EXPECT_TRUE(ok(mrq)) << mrq;
  EXPECT_FALSE(quit);
  const std::string json = session.handle_line(R"({"query":"skyline"})", quit);
  // Same query, same snapshot — identical payload regardless of syntax.
  EXPECT_EQ(strip_metrics(mrq), strip_metrics(json));
  EXPECT_EQ(session.metrics().queries, 2u);
  EXPECT_EQ(session.metrics().cache_hits, 1u);
}

TEST(Session, BlankAndCommentLinesGetNoResponse) {
  service::QueryEngine engine(workload(), {});
  server::Session session(1, engine, "");
  bool quit = false;
  EXPECT_EQ(session.handle_line("", quit), "");
  EXPECT_EQ(session.handle_line("  # comment", quit), "");
  EXPECT_EQ(session.metrics().requests, 0u);
}

TEST(Session, ErrorsBecomeResponsesNotThrows) {
  service::QueryEngine engine(workload(), {});
  server::Session session(1, engine, "");
  bool quit = false;
  const std::string bad = session.handle_line("warp 9", quit);
  EXPECT_EQ(bad.rfind("{\"ok\":false", 0), 0u) << bad;
  EXPECT_FALSE(quit);
  const std::string bad_json = session.handle_line(R"({"query":"skyband","k":-1})", quit);
  EXPECT_EQ(bad_json.rfind("{\"ok\":false", 0), 0u) << bad_json;
  EXPECT_EQ(session.metrics().errors, 2u);
  EXPECT_EQ(session.metrics().requests, 2u);
}

// Error text names the failing source file repo-relative, never the path
// the library was built from.
TEST(Session, ErrorLinesNameRepoRelativeSources) {
  service::QueryEngine engine(workload(), {});
  server::Session session(1, engine, "");
  bool quit = false;
  const std::string bad = session.handle_line(R"({"insert":[[0.5,0.5]]})", quit);
  EXPECT_EQ(bad.rfind("{\"ok\":false,\"error\":\"src/server/protocol.cpp:", 0), 0u) << bad;
  EXPECT_NE(bad.find("insert row has 2 coordinates"), std::string::npos) << bad;
}

TEST(Session, InlineInsertAdvancesVersion) {
  service::QueryEngine engine(workload(), {});
  server::Session session(1, engine, "");
  bool quit = false;
  const std::string response =
      session.handle_line(R"({"insert":[[0.5,0.5,0.5],[0.1,0.9,0.2]]})", quit);
  EXPECT_TRUE(ok(response)) << response;
  EXPECT_NE(response.find("\"inserted\":2"), std::string::npos) << response;
  EXPECT_NE(response.find("\"version\":1"), std::string::npos) << response;
  EXPECT_EQ(engine.version(), 1u);
  EXPECT_EQ(session.metrics().points_inserted, 2u);
}

// A file insert resolves against insert_dir and reads the format its name
// says, in either request syntax; its rows land verbatim under fresh ids.
TEST(Session, InsertFilesReadTheirFormatRelativeToInsertDir) {
  const std::string dir = testing::TempDir() + "/session_insert_files";
  std::filesystem::create_directories(dir);
  const data::PointSet mrb_rows = workload(40, 3, 7);
  const data::PointSet csv_rows = workload(30, 3, 8);
  data::write_block_store(dir + "/extra.mrb", mrb_rows);
  data::write_csv_file(dir + "/extra.csv", csv_rows);

  service::QueryEngine engine(workload(), {});
  server::Session session(1, engine, dir);
  bool quit = false;
  const std::string from_mrb = session.handle_line("insert extra.mrb", quit);
  EXPECT_NE(from_mrb.find("\"inserted\":40"), std::string::npos) << from_mrb;
  const std::string from_csv = session.handle_line(R"({"insert":"extra.csv"})", quit);
  EXPECT_NE(from_csv.find("\"inserted\":30"), std::string::npos) << from_csv;
  EXPECT_EQ(session.metrics().points_inserted, 70u);

  const auto snapshot = engine.snapshot();
  const data::PointSet& all = *snapshot->dataset;
  ASSERT_EQ(all.size(), 320u);
  EXPECT_TRUE(std::ranges::equal(all.raw().subspan(250 * 3, 40 * 3), mrb_rows.raw()));
  EXPECT_TRUE(std::ranges::equal(all.raw().subspan(290 * 3, 30 * 3), csv_rows.raw()));
  const data::PointSet sky = engine.execute(service::SkylineQuery{}).points;
  EXPECT_EQ(data::sorted_ids(sky), data::sorted_ids(skyline::naive_skyline(all)));
}

TEST(Session, QuitEndsSessionAndMetricsReport) {
  service::QueryEngine engine(workload(), {});
  server::Session session(1, engine, "");
  bool quit = false;
  (void)session.handle_line("skyline", quit);
  const std::string metrics = session.handle_line("metrics", quit);
  EXPECT_NE(metrics.find("\"queries\":1"), std::string::npos) << metrics;
  const std::string stats = session.handle_line("stats", quit);
  EXPECT_NE(stats.find("\"pipeline_runs\":1"), std::string::npos) << stats;
  EXPECT_FALSE(quit);
  const std::string bye = session.handle_line("quit", quit);
  EXPECT_TRUE(quit);
  EXPECT_NE(bye.find("\"bye\":1"), std::string::npos) << bye;
}

TEST(SkylineServer, ServesConcurrentSessionsIdentically) {
  service::QueryEngine engine(workload(), {});
  server::ServerOptions options;
  options.max_sessions = 4;
  server::SkylineServer srv(engine, options);
  srv.start();
  ASSERT_GT(srv.port(), 0);

  constexpr std::size_t kClients = 4;
  std::vector<std::string> payloads(kClients);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      server::LineClient client;
      client.connect("127.0.0.1", srv.port());
      ASSERT_TRUE(client.recv_line().has_value());  // greeting
      const auto response = client.request("skyline");
      ASSERT_TRUE(response.has_value());
      payloads[c] = strip_metrics(*response);
      (void)client.request("quit");
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t c = 1; c < kClients; ++c) EXPECT_EQ(payloads[c], payloads[0]);
  EXPECT_TRUE(ok(payloads[0])) << payloads[0];

  srv.stop();
  EXPECT_EQ(srv.stats().accepted, kClients);
  EXPECT_EQ(srv.completed_sessions().size(), kClients);
}

TEST(SkylineServer, RejectsConnectionsAtCapacity) {
  service::QueryEngine engine(workload(), {});
  server::ServerOptions options;
  options.max_sessions = 1;
  server::SkylineServer srv(engine, options);
  srv.start();

  server::LineClient first;
  first.connect("127.0.0.1", srv.port());
  ASSERT_TRUE(first.recv_line().has_value());

  server::LineClient second;
  second.connect("127.0.0.1", srv.port());
  const auto rejection = second.recv_line();
  ASSERT_TRUE(rejection.has_value());
  EXPECT_NE(rejection->find("capacity"), std::string::npos) << *rejection;
  EXPECT_FALSE(second.recv_line().has_value());  // rejected connections close

  // Ending the first session frees the slot; a retry gets in.
  (void)first.request("quit");
  bool admitted = false;
  for (int attempt = 0; attempt < 100 && !admitted; ++attempt) {
    server::LineClient retry;
    retry.connect("127.0.0.1", srv.port());
    const auto line = retry.recv_line();
    if (line.has_value() && ok(*line)) {
      admitted = true;
      (void)retry.request("quit");
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(admitted);
  srv.stop();
  EXPECT_GE(srv.stats().rejected, 1u);
}

TEST(SkylineServer, StopUnblocksLiveConnections) {
  service::QueryEngine engine(workload(), {});
  server::SkylineServer srv(engine, {});
  srv.start();
  server::LineClient client;
  client.connect("127.0.0.1", srv.port());
  ASSERT_TRUE(client.recv_line().has_value());
  std::thread stopper([&] { srv.stop(); });
  // The blocked read must end (EOF), not hang, once the server shuts down.
  EXPECT_FALSE(client.recv_line().has_value());
  stopper.join();
}

TEST(SkylineServer, SessionChurnAgainstConcurrentInserts) {
  service::QueryEngine engine(workload(400, 3), {});
  server::ServerOptions options;
  options.max_sessions = 8;
  server::SkylineServer srv(engine, options);
  srv.start();

  // Sessions connect, fire a few mixed requests, and disconnect — while two
  // of them interleave inserts. Everything must answer ok; TSan referees.
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kRounds = 3;
  std::vector<std::thread> threads;
  std::atomic<std::uint64_t> failures{0};
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        server::LineClient client;
        client.connect("127.0.0.1", srv.port());
        if (!client.recv_line().has_value()) {
          ++failures;
          continue;
        }
        const char* requests[] = {"skyline", "skyband 2", "subspace 0,1"};
        for (const char* request : requests) {
          const auto response = client.request(request);
          if (!response.has_value() || !ok(*response)) ++failures;
        }
        if (t < 2) {
          const auto response = client.request(R"({"insert":[[0.4,0.4,0.4]]})");
          if (!response.has_value() || !ok(*response)) ++failures;
        }
        (void)client.request("quit");
      }
    });
  }
  for (auto& t : threads) t.join();
  srv.stop();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(engine.version(), 2u * kRounds);
  EXPECT_EQ(srv.completed_sessions().size(), kThreads * kRounds);
}

// LineClient framing against a scripted loopback peer: two lines packed into
// one write come back one per recv_line, and a line of several hundred KB that
// arrives over many receive chunks comes back whole, followed by the line that
// shared its last chunk.
TEST(SkylineServerLineClient, PackedAndLongLinesComeBackIntact) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(listener, reinterpret_cast<const sockaddr*>(&addr), sizeof addr), 0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t addr_len = sizeof addr;
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &addr_len), 0);

  std::string long_line(600 * 1024, ' ');
  for (std::size_t i = 0; i < long_line.size(); ++i) {
    long_line[i] = static_cast<char>('a' + (i * 7 + i / 26) % 26);
  }

  std::thread peer([listener, &long_line] {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) return;
    const auto send_all = [fd](std::string_view bytes) {
      while (!bytes.empty()) {
        const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
        if (n <= 0) return;
        bytes.remove_prefix(static_cast<std::size_t>(n));
      }
    };
    send_all("alpha\nbeta\n");
    const std::string framed = long_line + "\ntail\n";
    for (std::size_t off = 0; off < framed.size(); off += 1000) {
      send_all(std::string_view(framed).substr(off, 1000));
    }
    ::close(fd);
  });

  server::LineClient client;
  client.set_recv_timeout_ms(30'000);
  client.connect("127.0.0.1", ntohs(addr.sin_port));
  EXPECT_EQ(client.recv_line(), std::optional<std::string>("alpha"));
  EXPECT_EQ(client.recv_line(), std::optional<std::string>("beta"));
  const std::optional<std::string> got = client.recv_line();
  EXPECT_EQ(got.value_or("").size(), long_line.size());
  EXPECT_TRUE(got == long_line);
  EXPECT_EQ(client.recv_line(), std::optional<std::string>("tail"));
  EXPECT_EQ(client.recv_line(), std::nullopt);  // the peer closed
  EXPECT_FALSE(client.timed_out());
  client.close();  // a failed read may have left the peer blocked in send()
  peer.join();
  ::close(listener);
}

}  // namespace
}  // namespace mrsky
