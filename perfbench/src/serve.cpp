// serve-churn: online registry traffic through the TCP server.
//
// One request connection drives a closed loop (registry callers wait for
// their reply) over a fixed 20-request cycle; one subscriber connection
// keeps a skyline replica from the pushed deltas. Every request's content is
// a pure function of the seed, and with a single request connection the
// snapshot versions and cache hits do not depend on thread interleaving.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "host_probe.hpp"
#include "reference.hpp"
#include "spans.hpp"
#include "workdir.hpp"
#include "workloads.hpp"
#include "src/common/rng.hpp"
#include "src/core/mr_skyline.hpp"
#include "src/dataset/io.hpp"
#include "src/dataset/normalize.hpp"
#include "src/dataset/qws.hpp"
#include "src/server/client.hpp"
#include "src/server/protocol.hpp"
#include "src/server/server.hpp"
#include "src/service/query_engine.hpp"

namespace perfbench {

namespace {

namespace common = mrsky::common;
namespace core = mrsky::core;
namespace data = mrsky::data;
namespace server = mrsky::server;
namespace service = mrsky::service;

constexpr std::size_t kDim = 4;
constexpr std::size_t kCycle = 20;
constexpr std::size_t kWriteRows = 8;
/// Each write is one tick and a cycle has four, so inserted rows expire two
/// cycles after they arrive: the registry reaches its steady size within a
/// few cycles, well inside one registry's share of a run (about 7-9 cycles).
constexpr std::int64_t kTtlTicks = 8;
constexpr std::size_t kTopK = 10;
/// The stream model's reference skyline is checked at every 8th write's
/// version (every other cycle), at the base version and at the last one.
constexpr std::uint64_t kModelCheckEvery = 8;
/// Cycles a traced run replays in each of its two passes (fixed, so every
/// count it reports repeats exactly at a given seed).
constexpr std::size_t kTracedCycles = 30;

enum class Kind { kSkyline, kTopK, kSubspace, kInsert, kDelete };

/// Out of every 20 requests: 2 inserts, 2 deletes, 11 skyline reads, 4 top-k
/// reads and 1 subspace read. Top-k and subspace reads follow writes, so they
/// run after the write purged the result cache.
constexpr Kind kMix[kCycle] = {
    Kind::kSkyline, Kind::kSkyline, Kind::kInsert,  Kind::kTopK,    Kind::kSkyline,
    Kind::kSkyline, Kind::kSkyline, Kind::kDelete,  Kind::kSkyline, Kind::kTopK,
    Kind::kSkyline, Kind::kSubspace, Kind::kInsert, Kind::kTopK,    Kind::kSkyline,
    Kind::kSkyline, Kind::kSkyline, Kind::kDelete,  Kind::kTopK,    Kind::kSkyline,
};

bool is_write(Kind k) { return k == Kind::kInsert || k == Kind::kDelete; }

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kSkyline: return "skyline";
    case Kind::kTopK: return "topk";
    case Kind::kSubspace: return "subspace";
    case Kind::kInsert: return "insert";
    case Kind::kDelete: return "delete";
  }
  return "?";
}

/// One request: its wire line and what the replay needs to re-execute it.
struct Request {
  Kind kind = Kind::kSkyline;
  std::string line;
  service::Query query;          ///< reads
  service::MutationBatch batch;  ///< writes
};

/// The seeded request stream. Inserted rows come from the same generator as
/// the registry (a pool beyond its N rows); deleted ids are drawn from every
/// id ever issued, so some already left — a valid, answered request.
class RequestPlan {
 public:
  RequestPlan(std::uint64_t seed, data::PointSet pool, std::size_t base_rows)
      : rng_(seed ^ 0x5e12e5c4a7ULL), pool_(std::move(pool)), next_id_(base_rows) {}

  Request make(std::size_t index) {
    Request r;
    r.kind = kMix[index % kCycle];
    switch (r.kind) {
      case Kind::kSkyline:
        r.line = "skyline";
        r.query = service::SkylineQuery{};
        break;
      case Kind::kTopK: {
        std::vector<double> w(kDim);
        double sum = 0.0;
        for (double& x : w) sum += x = 0.05 + rng_.uniform();
        r.line = "topk " + std::to_string(kTopK) + " ";
        for (std::size_t a = 0; a < kDim; ++a) {
          w[a] /= sum;
          r.line += (a > 0 ? "," : "") + server::double_repr(w[a]);
        }
        r.query = service::TopKWeightedQuery{w, kTopK};
        break;
      }
      case Kind::kSubspace: {
        static constexpr std::size_t kPairs[6][2] = {{0, 1}, {0, 2}, {0, 3},
                                                     {1, 2}, {1, 3}, {2, 3}};
        const auto& p = kPairs[(index / kCycle) % 6];
        r.line = "subspace " + std::to_string(p[0]) + "," + std::to_string(p[1]);
        r.query = service::SubspaceQuery{{p[0], p[1]}};
        break;
      }
      case Kind::kInsert: {
        r.batch.inserts = data::PointSet(kDim);
        r.line = "{\"insert\":[";
        for (std::size_t i = 0; i < kWriteRows; ++i) {
          const std::size_t row = pool_cursor_++ % pool_.size();
          r.batch.inserts.push_back(pool_.point(row));
          r.line += i > 0 ? ",[" : "[";
          bool first = true;
          for (const double c : pool_.point(row)) {
            r.line += (first ? "" : ",") + server::double_repr(c);
            first = false;
          }
          r.line += "]";
        }
        r.batch.ttl_ticks.assign(kWriteRows, kTtlTicks);
        r.line += "],\"ttl_ticks\":" + std::to_string(kTtlTicks) + "}";
        next_id_ += kWriteRows;
        break;
      }
      case Kind::kDelete: {
        r.line = "{\"delete\":[";
        for (std::size_t i = 0; i < kWriteRows; ++i) {
          const auto id = static_cast<data::PointId>(rng_.uniform_index(next_id_));
          r.batch.deletes.push_back(id);
          r.line += (i > 0 ? "," : "") + std::to_string(id);
        }
        r.line += "]}";
        break;
      }
    }
    return r;
  }

 private:
  common::Rng rng_;
  data::PointSet pool_;
  std::size_t pool_cursor_ = 0;
  std::size_t next_id_;
};

// --- Wire parsing (responses are single-line JSON the server renders). ---

std::optional<std::uint64_t> field_u64(const std::string& line, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  std::uint64_t v = 0;
  const char* first = line.data() + pos + needle.size();
  const auto [ptr, ec] = std::from_chars(first, line.data() + line.size(), v);
  if (ec != std::errc{}) return std::nullopt;
  return v;
}

bool ok_line(const std::string& line) { return line.rfind("{\"ok\":true", 0) == 0; }

/// Parses `"key":[[id,c,...],...]` into (id -> coords).
std::map<PointId, std::vector<double>> parse_points(const std::string& line,
                                                    std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":[";
  std::size_t pos = line.find(needle);
  if (pos == std::string::npos) throw std::runtime_error("response has no " + needle);
  pos += needle.size();
  std::map<PointId, std::vector<double>> points;
  const char* p = line.data() + pos;
  const char* end = line.data() + line.size();
  while (p < end && *p == '[') {
    ++p;
    PointId id = 0;
    auto r = std::from_chars(p, end, id);
    if (r.ec != std::errc{}) throw std::runtime_error("bad point id on the wire");
    p = r.ptr;
    std::vector<double> coords;
    while (p < end && *p == ',') {
      double c = 0.0;
      r = std::from_chars(p + 1, end, c);
      if (r.ec != std::errc{}) throw std::runtime_error("bad coordinate on the wire");
      coords.push_back(c);
      p = r.ptr;
    }
    if (p >= end || *p != ']') throw std::runtime_error("unterminated point on the wire");
    points[id] = std::move(coords);
    ++p;
    if (p < end && *p == ',') ++p;
  }
  return points;
}

std::vector<PointId> parse_ids(const std::string& line, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":[";
  std::size_t pos = line.find(needle);
  if (pos == std::string::npos) throw std::runtime_error("response has no " + needle);
  std::vector<PointId> ids;
  const char* p = line.data() + pos + needle.size();
  const char* end = line.data() + line.size();
  while (p < end && *p != ']') {
    PointId id = 0;
    const auto r = std::from_chars(p, end, id);
    if (r.ec != std::errc{}) throw std::runtime_error("bad id on the wire");
    ids.push_back(id);
    p = r.ptr;
    if (p < end && *p == ',') ++p;
  }
  return ids;
}

/// A query response without its per-call metrics: the part that must be
/// identical for the same query at the same version.
std::string_view payload(const std::string& line) {
  const std::size_t pos = line.rfind(",\"metrics\":");
  return pos == std::string::npos ? std::string_view(line)
                                  : std::string_view(line).substr(0, pos);
}

// --- One server instance with its two connections. ---

/// The subscriber side: a thread that reads pushed deltas, replays them onto
/// the replica and notes, per version, the replica digest and arrival time.
struct Subscriber {
  server::LineClient client;
  std::optional<SkylineReplica> replica;
  std::map<std::uint64_t, std::uint64_t> digest_at;  ///< version -> replica digest
  std::map<std::uint64_t, Clock::time_point> arrived_at;
  bool gap = false;  ///< a delta skipped, repeated or contradicted the replica
  std::string error;
  int cpu = 0;  ///< where the thread runs, off the request path's CPU
  std::atomic<std::uint64_t> stop_after{~std::uint64_t{0}};
  std::thread thread;

  void apply_delta(const std::string& line, Clock::time_point arrived) {
    const auto version = field_u64(line, "version");
    if (!ok_line(line) || !version || line.find("\"event\":\"delta\"") == std::string::npos) {
      throw std::runtime_error("unexpected subscriber line: " + line.substr(0, 120));
    }
    if (!replica->apply(*version, parse_ids(line, "left"), parse_points(line, "entered"))) {
      gap = true;
    }
    digest_at[*version] = replica->digest();
    arrived_at[*version] = arrived;
  }

  void run() {
    try {
      (void)pin_to_cpu(cpu);  // unpinned, it still keeps the replica
      client.set_recv_timeout_ms(20);
      while (replica->version() < stop_after.load() && !gap) {
        const auto line = client.recv_line();
        if (!line) {
          if (client.timed_out()) continue;
          throw std::runtime_error("subscriber connection closed");
        }
        apply_delta(*line, Clock::now());
      }
    } catch (const std::exception& e) {
      error = e.what();
    }
  }
};

struct Instance {
  std::unique_ptr<service::QueryEngine> engine;
  std::unique_ptr<server::SkylineServer> srv;
  server::LineClient requests;
  Subscriber sub;
  std::shared_ptr<const data::PointSet> base_dataset;  ///< what the replay starts from

  ~Instance() {
    if (sub.thread.joinable()) {
      sub.stop_after = 0;
      sub.thread.join();
    }
    if (srv) srv->stop();
  }
};

std::string must_recv(server::LineClient& client, const char* what) {
  auto line = client.recv_line();
  if (!line) throw std::runtime_error(std::string("no response to ") + what);
  return *line;
}

/// What the closed loop recorded, for the metrics and the checks.
struct LoopLog {
  struct Read {
    Kind kind;
    std::uint64_t version;
    std::uint64_t digest;  ///< skyline: points digest; others: payload digest
  };
  std::vector<Read> reads;
  std::vector<Request> writes_and_checked_reads;  ///< replay input, request order
  /// Latencies at reference speed (raw when the pass runs without a probe).
  std::vector<double> read_ms, write_ms, subspace_s;
  std::map<std::string, std::vector<double>> ms_by_kind;
  std::vector<double> read_overhead_ms, response_kb;  ///< measured as is
  std::map<std::uint64_t, Clock::time_point> write_sent;  ///< version -> send time
  std::size_t requests = 0;
  std::uint64_t bad_responses = 0;
  std::uint64_t final_version = 0;
  double wall_s = 0.0;
  /// Summed request latencies: the loop's wall without the benchmark's own
  /// bookkeeping (response parsing, digests, probes) between requests; at
  /// reference speed, and as measured.
  double busy_s = 0.0;
  double raw_busy_s = 0.0;
};

/// Set-up: ingest, engine, server, both connections, the subscribe
/// handshake, then the warm-up read and write (which engages streaming).
std::unique_ptr<Instance> set_up(const std::string& csv, common::TraceRecorder* trace,
                                 const Request& warm_write, double& ingest_s) {
  auto inst = std::make_unique<Instance>();
  const auto t0 = Clock::now();
  data::PointSet dataset = data::normalize_min_max(data::read_csv_file(csv));
  ingest_s = seconds_between(t0, Clock::now());
  service::QueryEngineOptions options;
  options.trace = trace;
  inst->engine = std::make_unique<service::QueryEngine>(std::move(dataset), options);
  inst->base_dataset = inst->engine->snapshot()->dataset;
  inst->srv = std::make_unique<server::SkylineServer>(*inst->engine, server::ServerOptions{});
  inst->srv->start();

  inst->requests.connect("127.0.0.1", inst->srv->port());
  (void)must_recv(inst->requests, "connect");
  Subscriber& sub = inst->sub;
  sub.client.connect("127.0.0.1", inst->srv->port());
  (void)must_recv(sub.client, "connect");
  if (!sub.client.send_line("subscribe")) throw std::runtime_error("subscribe send failed");
  const std::string subscribed = must_recv(sub.client, "subscribe");
  const auto base_version = field_u64(subscribed, "version");
  if (!ok_line(subscribed) || !base_version) throw std::runtime_error("subscribe refused");
  sub.replica.emplace(*base_version, parse_points(subscribed, "skyline"));
  sub.digest_at[*base_version] = sub.replica->digest();

  const auto sky = inst->requests.request("skyline");
  if (!sky || !ok_line(*sky)) throw std::runtime_error("warm-up skyline failed");
  const auto ack = inst->requests.request(warm_write.line);
  if (!ack || !ok_line(*ack)) throw std::runtime_error("warm-up write failed");
  sub.apply_delta(must_recv(sub.client, "warm-up delta"), Clock::now());
  return inst;
}

/// Runs the closed loop for `cycles` cycles, or, when cycles is 0, whole
/// cycles until `seconds` have passed. With a probe, the host is probed at
/// the start of every cycle and the cycle's latencies are taken at
/// reference speed.
LoopLog run_loop(Instance& inst, RequestPlan& plan, std::size_t cycles, double seconds,
                 common::TraceRecorder* trace, HostProbe* probe, int side_cpu) {
  LoopLog log;
  Subscriber& sub = inst.sub;
  sub.cpu = side_cpu;
  std::uint64_t version = sub.replica->version();
  sub.thread = std::thread([&sub] { sub.run(); });

  common::ScopedSpan root(trace, "bench-requests", "bench");
  const auto start = Clock::now();
  double speed = 1.0;
  for (std::size_t i = 0;; ++i) {
    if (i % kCycle == 0) {
      const bool done = cycles > 0 ? i / kCycle >= cycles
                                   : i > 0 && seconds_between(start, Clock::now()) >= seconds;
      if (done) break;
      if (probe != nullptr) speed = probe->factor();
    }
    Request req = plan.make(i);
    std::optional<std::string> response;
    const auto t0 = Clock::now();
    {
      common::ScopedSpan span(trace, "request", "bench");
      response = inst.requests.request(req.line);
    }
    const double raw_ms = seconds_between(t0, Clock::now()) * 1e3;
    const double ms = raw_ms * speed;
    ++log.requests;
    log.busy_s += ms * 1e-3;
    log.raw_busy_s += raw_ms * 1e-3;
    log.ms_by_kind[kind_name(req.kind)].push_back(ms);
    const std::optional<std::uint64_t> v = response ? field_u64(*response, "version") : std::nullopt;
    if (!response || !ok_line(*response) || !v) {
      ++log.bad_responses;
      continue;
    }
    if (is_write(req.kind)) {
      if (*v != version + 1) ++log.bad_responses;  // one writer: versions are consecutive
      version = *v;
      log.write_ms.push_back(ms);
      log.write_sent[*v] = t0;
      log.writes_and_checked_reads.push_back(std::move(req));
      continue;
    }
    if (*v != version) ++log.bad_responses;
    log.read_ms.push_back(ms);
    log.response_kb.push_back(static_cast<double>(response->size()) / 1024.0);
    const auto wall_ns = field_u64(*response, "wall_ns").value_or(0);
    log.read_overhead_ms.push_back(raw_ms - static_cast<double>(wall_ns) * 1e-6);
    if (req.kind == Kind::kSkyline) {
      log.reads.push_back({req.kind, *v, canonical_digest(parse_points(*response, "points"))});
      continue;
    }
    if (req.kind == Kind::kSubspace && response->find("\"cache_hit\":false") != std::string::npos) {
      log.subspace_s.push_back(static_cast<double>(wall_ns) * 1e-9 * speed);
    }
    log.reads.push_back({req.kind, *v, text_digest(payload(*response))});
    log.writes_and_checked_reads.push_back(std::move(req));
  }
  log.wall_s = seconds_between(start, Clock::now());
  log.final_version = version;
  sub.stop_after = version;
  sub.thread.join();
  return log;
}

/// Every correctness check of one pass: each request is an attempted
/// operation, failed when its answer was refused, out of order or wrong; the
/// subscriber replica, each stream-model version and the final state are one
/// more each.
void check_pass(Instance& inst, const LoopLog& log, const Request& warm_write, RunResult& out) {
  Subscriber& sub = inst.sub;
  out.attempted += log.requests;
  out.failed += log.bad_responses;

  // The replica: no gap, and equal to the final snapshot's skyline.
  const auto snap = inst.engine->snapshot();
  const bool replica_ok = sub.error.empty() && !sub.gap && snap->full_skyline != nullptr &&
                          sub.replica->version() == snap->version &&
                          snap->version == log.final_version &&
                          sub.replica->digest() == canonical_digest(*snap->full_skyline);
  if (!sub.error.empty()) std::cout << "subscriber: " << sub.error << "\n";
  out.check(replica_ok);

  // The stream model replays the writes without the engine; at its checked
  // versions the replica must equal the reference skyline of the model's
  // live rows, and at the end the snapshot's rows and the engine's expiry
  // and delete counts must equal the model's.
  StreamModel model(*inst.base_dataset);
  const std::uint64_t base_version = sub.digest_at.begin()->first;
  std::size_t model_checks = 0, model_mismatches = 0;
  const auto check_model = [&](const PointSet& live) {
    const auto it = sub.digest_at.find(base_version + model.tick());
    const bool ok = it != sub.digest_at.end() &&
                    it->second == canonical_digest(reference_skyline(live));
    ++model_checks;
    if (!ok) ++model_mismatches;
    out.check(ok);
  };
  const auto apply = [&](const service::MutationBatch& b) {
    model.apply(b.inserts, b.ttl_ticks, b.deletes);
    if (model.tick() % kModelCheckEvery == 0) check_model(model.live());
  };
  check_model(model.live());
  apply(warm_write.batch);
  for (const Request& req : log.writes_and_checked_reads) {
    if (is_write(req.kind)) apply(req.batch);
  }
  const PointSet live = model.live();
  if (model.tick() % kModelCheckEvery != 0) check_model(live);
  const auto stats = inst.engine->stats();
  const bool final_ok = canonical_digest(live) == canonical_digest(*snap->dataset) &&
                        stats.points_expired == model.expired() &&
                        stats.points_deleted == model.deleted() &&
                        stats.deletes_missed == model.missing();
  out.check(final_ok);

  // Skyline reads against the replica at their version; top-k and subspace
  // reads against a single-threaded replay of the same requests.
  std::size_t read_mismatches = 0;
  service::QueryEngine replay(*inst.base_dataset);
  replay.apply_batch(warm_write.batch);
  std::size_t next = 0;
  for (const LoopLog::Read& read : log.reads) {
    if (read.kind == Kind::kSkyline) {
      const auto it = sub.digest_at.find(read.version);
      if (it == sub.digest_at.end() || it->second != read.digest) ++read_mismatches;
      continue;
    }
    // Apply the writes issued before this read, then re-execute it.
    while (is_write(log.writes_and_checked_reads[next].kind)) {
      replay.apply_batch(log.writes_and_checked_reads[next].batch);
      ++next;
    }
    const Request& req = log.writes_and_checked_reads[next++];
    const service::QueryResult r = replay.execute(req.query);
    const std::string line = server::result_line(req.query, r);
    if (r.metrics.dataset_version != read.version || text_digest(payload(line)) != read.digest) {
      ++read_mismatches;
    }
  }
  out.failed += read_mismatches;
  std::cout << "  traffic: " << log.requests / kCycle << " cycles, " << model.tick()
            << " writes; rows expired " << model.expired() << ", deleted " << model.deleted()
            << ", missing deletes " << model.missing() << ", live " << model.live_count() << "\n"
            << "  checked " << log.reads.size() << " reads, " << model_checks
            << " model versions and the subscriber replica at version " << sub.replica->version()
            << ": " << read_mismatches << " read mismatches, " << model_mismatches
            << " model mismatches, replica " << (replica_ok ? "ok" : "WRONG") << ", final state "
            << (final_ok ? "ok" : "WRONG") << "\n";
}

/// Ends both sessions and stops the server; returns the failure count the
/// server and its sessions recorded.
std::uint64_t shut_down(Instance& inst) {
  (void)inst.requests.send_line("quit");
  (void)inst.sub.client.send_line("quit");
  inst.srv->stop();
  std::uint64_t failed = inst.srv->stats().rejected;
  for (const auto& s : inst.srv->completed_sessions()) {
    failed += s.errors + s.cancelled + s.deadline_missed;
  }
  return failed;
}

/// Writes registry `seed`'s base rows to `csv` and returns the pool its
/// inserts draw from: rows of the same generator beyond the first `n`.
data::PointSet make_inputs(std::uint64_t seed, std::size_t n, const std::string& csv) {
  const std::size_t pool_rows = n / 5;
  data::QwsLikeGenerator gen(kDim, seed);
  const data::PointSet all = data::normalize_min_max(gen.generate_oriented(n + pool_rows));
  std::vector<std::size_t> base(n), extra(pool_rows);
  for (std::size_t i = 0; i < n; ++i) base[i] = i;
  for (std::size_t i = 0; i < pool_rows; ++i) extra[i] = n + i;
  data::write_csv_file(csv, all.select(base));
  return all.select(extra);
}

/// Traced-pass figures of one registry: engine spans inside the pass's
/// window, paired with what the client saw.
void record_traced_pass(const SpanTree& tree, std::int64_t from_ns, const LoopLog& traced,
                        const service::QueryEngine::Stats& before,
                        const service::QueryEngine::Stats& after, PhaseValues& out,
                        std::vector<std::uint64_t>& pipeline_roots) {
  std::vector<double> apply_ms;
  std::map<std::string, std::vector<double>> query_ms;
  for (const TraceSpan& s : tree.spans()) {
    if (s.start_ns < from_ns) continue;
    const double ms = static_cast<double>(SpanTree::duration_ns(s)) * 1e-6;
    if (s.name == "apply-batch") apply_ms.push_back(ms);
    const mrsky::common::TraceArg* kind = s.name == "query" ? s.find_arg("kind") : nullptr;
    if (kind == nullptr) continue;
    query_ms[kind->value].push_back(ms);
    if (kind->value == "subspace" && s.arg_int("cache_hit", 1) == 0) pipeline_roots.push_back(s.id);
  }
  // One request connection: the i-th write caused the i-th apply-batch.
  if (apply_ms.size() != traced.write_ms.size()) {
    throw std::runtime_error("apply-batch spans do not pair with the writes");
  }
  std::vector<double> write_overhead;
  for (std::size_t i = 0; i < apply_ms.size(); ++i) {
    write_overhead.push_back(traced.write_ms[i] - apply_ms[i]);
  }
  const auto ratio = [](std::uint64_t num, std::uint64_t den) {
    return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
  };
  const std::uint64_t reuses = after.fit_reuses - before.fit_reuses;
  out.add("service.apply_ms", median(apply_ms));
  out.add("service.query_ms.skyline", median(query_ms["skyline"]));
  out.add("service.query_ms.topk", median(query_ms["top_k_weighted"]));
  out.add("service.query_ms.subspace", median(query_ms["subspace"]));
  out.add("service.cache_hit_ratio",
          ratio(after.cache_hits - before.cache_hits, after.queries - before.queries));
  out.add("service.fit_reuse_ratio",
          ratio(reuses, reuses + after.fits_computed - before.fits_computed));
  out.add("service.pipeline_runs", static_cast<double>(after.pipeline_runs - before.pipeline_runs));
  out.add("server.write_overhead_ms", median(write_overhead));
}

}  // namespace

RunResult run_serve_churn(const Options& o) {
  // Registries per run, each from its own seed: a registry's skyline size
  // moves its read latency by ±25 %, so a run averages sixteen. A traced run
  // replays a fixed stream twice per registry, so it takes two.
  const std::size_t registries = o.traced ? 2 : 16;
  const std::size_t n = o.smoke ? 3000 : 100000;
  WorkDir dir(o.work_dir, "serve-churn");
  const std::string csv = dir.file("input.csv");
  const double seconds = o.seconds / static_cast<double>(registries);
  const std::size_t cycles = o.traced ? (o.smoke ? 3 : kTracedCycles) : 0;

  RunResult result;
  // Reported as medians over the registries. For peak RSS that matters: one
  // registry in a few peaks 10-20 % above the rest, as the allocator happens
  // to place a snapshot.
  std::vector<double> setup_s, peak_rss;
  PhaseValues per_registry;
  HostProbe probe;
  common::TraceRecorder recorder;
  std::vector<std::uint64_t> pipeline_roots;
  std::uint64_t server_failed = 0;
  for (std::size_t r = 0; r < registries; ++r) {
    const std::uint64_t seed = dataset_seed(o.seed, r);
    const data::PointSet pool = make_inputs(seed, n, csv);
    // The set-up's warm-up write is an insert drawn from the plan before the
    // loop starts, so every pass issues the same stream from the same state.
    std::optional<RequestPlan> plan;
    Request warm;
    const auto start_plan = [&] {
      plan.emplace(seed, pool, n);
      warm = plan->make(2);
    };

    start_plan();
    double ingest_s = 0.0;
    // Set-up's host speed is the mean of the probes on either side.
    const double speed_before = probe.factor();
    const auto t0 = Clock::now();
    std::unique_ptr<Instance> inst = set_up(csv, nullptr, warm, ingest_s);
    const double setup_wall = seconds_between(t0, Clock::now());
    setup_s.push_back(setup_wall * (speed_before + probe.factor()) / 2.0);
    std::cout << "registry " << r + 1 << " (seed " << seed << ") set-up: " << setup_wall
              << " s wall, " << setup_s.back() << " s at reference speed (ingest " << ingest_s
              << " s, skyline " << inst->engine->snapshot()->full_skyline->size()
              << " points)\n";

    reset_peak_rss();
    const LoopLog log = run_loop(*inst, *plan, cycles, seconds, nullptr, &probe, o.side_cpu);
    const double rss = peak_rss_mb();  // before any check allocates
    std::cout << "registry " << r + 1 << ": " << log.requests << " requests in " << log.wall_s
              << " s (" << log.raw_busy_s << " s waiting for answers, " << log.busy_s
              << " s at reference speed), final version " << log.final_version
              << ", peak RSS " << rss << " MB\n";
    for (const auto& [kind, ms] : log.ms_by_kind) {
      std::cout << "  " << kind << ": " << ms.size() << " requests, p50 " << median(ms)
                << " ms, mean " << mean(ms) << " ms\n";
    }
    check_pass(*inst, log, warm, result);

    if (!o.traced) {
      // Untimed: one pipeline job over the registry as loaded, with the CLI
      // defaults — the paper's simulated cluster time for this dataset, and
      // a check of the subscription's base skyline against a fresh run.
      const core::MRSkylineResult job =
          core::run_mr_skyline(*inst->base_dataset, core::MRSkylineConfig{});
      result.check(canonical_digest(job.skyline) == inst->sub.digest_at.begin()->second);
      server_failed += shut_down(*inst);
      peak_rss.push_back(rss);
      per_registry.add("job_p50_s", median(log.subspace_s));
      per_registry.add("sim_job_s", job.simulate(mrsky::mr::ClusterModel{}).total_seconds());
      per_registry.add("read_p50_ms", median(log.read_ms));
      per_registry.add("write_p50_ms", median(log.write_ms));
      per_registry.add("serve_ms_per_req", log.busy_s * 1e3 / static_cast<double>(log.requests));
      continue;
    }

    // Traced run: the untraced pass above gives the client-side figures; a
    // second pass replays the same stream against a traced engine.
    std::vector<double> lag_ms;
    for (const auto& [version, sent] : log.write_sent) {
      const auto it = inst->sub.arrived_at.find(version);
      if (it != inst->sub.arrived_at.end()) {
        lag_ms.push_back(seconds_between(sent, it->second) * 1e3);
      }
    }
    server_failed += shut_down(*inst);
    inst.reset();
    start_plan();
    double ingest = 0.0;
    inst = set_up(csv, &recorder, warm, ingest);
    const auto before = inst->engine->stats();
    const std::int64_t from_ns = recorder.now_ns();
    const LoopLog traced = run_loop(*inst, *plan, cycles, seconds, &recorder, nullptr, o.side_cpu);
    const auto after = inst->engine->stats();
    check_pass(*inst, traced, warm, result);
    server_failed += shut_down(*inst);

    record_traced_pass(SpanTree(recorder.spans()), from_ns, traced, before, after, per_registry,
                       pipeline_roots);
    per_registry.add("dataset.ingest_s", ingest_s);
    per_registry.add("server.read_overhead_ms", median(log.read_overhead_ms));
    per_registry.add("server.read_response_kb", mean(log.response_kb));
    per_registry.add("server.delta_lag_ms", median(lag_ms));
    per_registry.add("tail.read_p99_ms", percentile(log.read_ms, 99.0));
    per_registry.add("tail.write_p99_ms", percentile(log.write_ms, 99.0));
    per_registry.add("trace.overhead_frac", traced.raw_busy_s / log.raw_busy_s - 1.0);
  }

  result.failed += server_failed;
  per_registry.report_means(result);
  std::cout << "host probe: " << probe.factors().size() << " runs, median speed factor "
            << median(probe.factors()) << "\n";
  if (!o.traced) {
    result.set("setup_s", median(setup_s));
    result.set("peak_rss_mb", median(peak_rss));
    return result;
  }
  result.set("server.failed", static_cast<double>(server_failed));
  const SpanTree tree(recorder.spans());
  (void)record_pipeline_layers(tree, pipeline_roots, result);
  std::vector<double> unattributed;
  for (const std::uint64_t root : tree.named("bench-requests")) {
    unattributed.push_back(static_cast<double>(tree.self_ns(root)) /
                           static_cast<double>(SpanTree::duration_ns(tree.span(root))));
  }
  result.set("trace.unattributed_frac", mean(unattributed));
  check_attribution(tree,
                    {"dataset.ingest_s", "core.self_s", "partition.fit_s", "skyline.local_s",
                     "skyline.ns_per_test", "mr.map_s", "mr.shuffle_s", "mr.reduce_other_s",
                     "service.apply_ms", "service.query_ms.skyline", "service.query_ms.topk",
                     "service.query_ms.subspace", "service.cache_hit_ratio",
                     "service.pipeline_runs", "server.read_overhead_ms",
                     "server.write_overhead_ms", "server.read_response_kb",
                     "server.delta_lag_ms", "tail.read_p99_ms", "tail.write_p99_ms"},
                    result);
  const std::string trace_path = dir.trace_path(o.seed);
  recorder.write_chrome_json(trace_path);
  std::cout << "trace: " << trace_path << " (" << tree.spans().size() << " spans)\n";
  return result;
}

}  // namespace perfbench
