// One client session against the shared QueryEngine.
//
// A Session owns no transport: the server (or a test) feeds it request lines
// and writes back the response lines it returns. That keeps the whole
// request→response path unit-testable without a socket, and means one session
// object behaves identically over TCP, in the serve CLI, or in-process.
//
// Sessions aggregate the QueryMetrics of every query they execute (ISSUE 6:
// per-session metrics): totals, cache behaviour and wall-time extremes are
// reported by the `metrics` request and collected by the server when the
// session ends, so operators see per-client cost, not just engine-wide sums.
//
// Request lifecycle (ISSUE 7): every session holds one CancellationToken for
// its whole life — the server keeps a copy and cancels it to drain. Around
// each query the session arms the token with the request's deadline (its own
// `deadline_ms`, else the server default) and clears it afterwards; a query
// stopped by either signal is answered with a typed cancellation line and
// counted in `cancelled` / `deadline_missed`, never in `errors`.
//
// Every points array a session sends (query answers and a subscription's
// base skyline) goes through a PointsMemo, so a read that repeats an earlier
// answer to the same query sends that answer's text without printing its
// coordinates again. The head and the metrics stay per request.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "src/common/sync.hpp"
#include "src/server/points_memo.hpp"
#include "src/server/protocol.hpp"
#include "src/service/query_engine.hpp"

namespace mrsky::server {

/// Aggregated per-session counters. Plain data — owned by one session thread
/// while live, snapshotted by the server on session end.
struct SessionMetrics {
  std::uint64_t id = 0;             ///< session id (1-based accept order)
  std::uint64_t requests = 0;       ///< lines answered (incl. errors)
  std::uint64_t queries = 0;        ///< query requests executed
  std::uint64_t cache_hits = 0;     ///< of which served from the result cache
  std::uint64_t inserts = 0;        ///< insert requests executed
  std::uint64_t points_inserted = 0;
  std::uint64_t deletes = 0;        ///< delete requests executed
  std::uint64_t points_deleted = 0;
  std::uint64_t deltas_sent = 0;    ///< subscription delta lines pushed
  std::uint64_t points_returned = 0;
  std::uint64_t errors = 0;         ///< malformed / invalid requests
  std::uint64_t cancelled = 0;      ///< queries stopped by server cancel (drain)
  std::uint64_t deadline_missed = 0;  ///< queries stopped by their deadline
  std::int64_t wall_ns_total = 0;   ///< summed QueryMetrics::wall_ns
  std::int64_t wall_ns_max = 0;     ///< slowest single query
  std::uint64_t last_version = 0;   ///< latest snapshot version this session saw

  /// Folds one query's metrics into the aggregate.
  void aggregate(const service::QueryMetrics& m);

  /// Single-line JSON rendering (the `metrics` response payload).
  [[nodiscard]] std::string to_json() const;
};

/// Per-session policy the server configures once at accept time.
struct SessionOptions {
  /// Base directory for relative `insert <path>` requests (empty = resolve
  /// against the process CWD).
  std::string insert_dir;
  /// Deadline applied to queries that do not carry their own (-1 = none).
  std::int64_t default_deadline_ms = -1;
  /// Longest request line accepted by the parser (0 = unlimited); oversized
  /// requests are rejected with a byte-offset diagnostic before any JSON DOM
  /// is allocated.
  std::size_t max_request_bytes = 0;
};

class Session {
 public:
  /// Compatibility form: options all default. The engine must outlive the
  /// session.
  Session(std::uint64_t id, service::QueryEngine& engine, std::string insert_dir);

  /// `token` is the session-lifetime cancellation handle; the caller keeps a
  /// copy to cancel the session from outside (the server's drain). An inert
  /// token is replaced with a private armed one, so deadlines always work.
  /// `memo` renders every points array the session sends; the server shares
  /// one among its sessions, and a null memo is replaced with a private one.
  Session(std::uint64_t id, service::QueryEngine& engine, SessionOptions options,
          common::CancellationToken token = {}, std::shared_ptr<PointsMemo> memo = nullptr);

  /// The greeting the server sends on connect.
  [[nodiscard]] std::string greeting() const;

  /// Executes one request line and returns the response line (no trailing
  /// newline), or an empty string for blank/comment lines (no response).
  /// Sets `quit` when the client ended the session. Never throws: malformed
  /// or invalid requests become {"ok":false,...} responses and count into
  /// SessionMetrics::errors; cancelled/deadline-stopped queries become typed
  /// cancellation responses and count into their own counters.
  [[nodiscard]] std::string handle_line(const std::string& line, bool& quit);

  [[nodiscard]] const SessionMetrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] std::uint64_t id() const noexcept { return metrics_.id; }

  /// The session's cancellation handle (shared state with the server's copy).
  [[nodiscard]] const common::CancellationToken& token() const noexcept { return token_; }

  /// The session's standing subscription, or nullptr. The transport layer
  /// drains it between request lines (same thread as handle_line — no lock).
  [[nodiscard]] const service::StreamSubscriptionPtr& subscription() const noexcept {
    return sub_;
  }

  /// Accounts delta lines the transport pushed for this session.
  void note_deltas(std::uint64_t n) noexcept { metrics_.deltas_sent += n; }

 private:
  [[nodiscard]] std::string dispatch(const Request& request, std::int64_t deadline_ms,
                                     bool& quit);
  [[nodiscard]] std::string run_query(const service::Query& query, std::int64_t deadline_ms);
  [[nodiscard]] std::string run_insert_file(const std::string& path);
  [[nodiscard]] std::string run_insert(const data::PointSet& points, std::int64_t ttl_ticks);
  [[nodiscard]] std::string run_delete(const service::DeleteCommand& command);
  [[nodiscard]] std::string run_subscribe();

  service::QueryEngine& engine_;
  SessionOptions options_;
  common::CancellationToken token_;
  std::shared_ptr<PointsMemo> memo_;
  SessionMetrics metrics_;
  service::StreamSubscriptionPtr sub_;
};

}  // namespace mrsky::server
