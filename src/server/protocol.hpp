// Wire protocol of the skyline server (ISSUE 6 tentpole).
//
// The server speaks a line-oriented protocol over a plain TCP stream: the
// client sends one request per line, the server answers with exactly one
// JSON line per request. Two request syntaxes share the connection:
//
//  * the `.mrq` script grammar (src/service/script.hpp) — `skyline`,
//    `subspace 0,2`, `skyband 3`, `representative 5`, `topk 10 0.5,0.5`,
//    `insert extra.csv` — so an interactive session types the same commands
//    a script file holds;
//  * a JSON form for programmatic clients:
//      {"query":"skyline"}
//      {"query":"subspace","attributes":[0,2]}
//      {"query":"skyband","k":3}
//      {"query":"representative","k":5}
//      {"query":"topk","k":10,"weights":[0.25,0.75]}
//      {"insert":"extra.csv"}              file on the server, insert_dir-relative
//      {"insert":[[0.1,0.2],[0.3,0.4]]}    inline rows (one array per point)
//      {"insert":[[...]],"ttl_ticks":5}    inline rows expiring after 5 ticks
//      {"delete":[3,17,42]}                delete points by engine id
//      {"command":"metrics"|"stats"|"quit"|"subscribe"|"unsubscribe"}
//    plus the bare control verbs `metrics`, `stats`, `quit`, `subscribe`,
//    `unsubscribe`, and the script verb `delete 3,17,42`.
//
// Streaming (ISSUE 9): `subscribe` answers with `subscribed_line` — the base
// snapshot version AND its full skyline, one atomic handoff — after which the
// server pushes one `delta_line` per published version:
//   {"ok":true,"event":"delta","version":V,"tick":T,"inserted":i,"deleted":d,
//    "expired":e,"missing":m,"entered":[[id,c,...],...],"left":[id,...]}
// Replaying entered/left onto the base skyline in version order reproduces
// every published skyline bitwise. Regular requests still work while
// subscribed; `unsubscribe` stops the pushes with `unsubscribed_line`. A
// server drain cancels subscriptions with the same typed cancelled line a
// query would get.
//
// Per-request deadlines (ISSUE 7): a JSON request may carry
// `"deadline_ms":<n>`, and a `.mrq`-form request may end with a trailing
// `deadline=<n>` token (`skyband 3 deadline=50`); both bound the request's
// wall time from the moment the server parses it. A request whose deadline
// expires mid-pipeline is abandoned cooperatively and answered with a typed
// cancellation line (`cancelled_line`), never a dropped connection.
//
// Responses are single-line JSON objects with an "ok" flag. Every double on
// the wire is printf's `%.17g` text: 17 significant digits, trailing zeros
// dropped, exponent form below 1e-4 and from 1e17 up. 17 digits round-trip
// every finite IEEE double bit-exactly, so the server's bitwise-
// reproducibility guarantee survives the text protocol. The text is not the
// shortest that round-trips (0.1 goes out as `0.10000000000000001`), and it
// must not become that: clients and replays compare payloads byte for byte.
// The renderer is std::to_chars at precision 17 in general format, which the
// standard defines as that printf conversion; a session reuses the text of
// an identical earlier points array (points_memo.hpp). Blank lines and `#`
// comments produce no response (they are script furniture, not requests).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>

#include "src/dataset/point_set.hpp"
#include "src/service/query.hpp"
#include "src/service/script.hpp"
#include "src/service/stream.hpp"

namespace mrsky::server {

class PointsMemo;

/// Inline insert: the rows arrived on the wire, no file involved.
struct InsertInline {
  data::PointSet points;
  /// Ticks until these rows expire (0 = engine default / no expiry). Applies
  /// to every row of the batch.
  std::int64_t ttl_ticks = 0;
};

/// Per-session aggregate metrics request (`metrics`).
struct MetricsRequest {};

/// Engine-wide stats request (`stats`).
struct StatsRequest {};

/// Orderly session end (`quit`).
struct QuitRequest {};

/// Standing continuous-skyline query registration (`subscribe`).
struct SubscribeRequest {};

/// Ends the session's subscription (`unsubscribe`).
struct UnsubscribeRequest {};

using Request =
    std::variant<service::Query, service::InsertCommand, service::DeleteCommand, InsertInline,
                 MetricsRequest, StatsRequest, QuitRequest, SubscribeRequest, UnsubscribeRequest>;

/// A parsed request plus its lifecycle attributes — today just the optional
/// per-request deadline (-1 = none; the server may substitute its default).
struct RequestEnvelope {
  Request request;
  std::int64_t deadline_ms = -1;
};

/// Parses one request line (either syntax), including the per-request
/// deadline. Returns nullopt for blank / comment lines. Throws
/// mrsky::InvalidArgument on malformed input — the session turns that into an
/// error response, never a dropped connection. `dim` is the resident
/// dataset's dimensionality, used to size-check inline insert rows at the
/// protocol boundary. `max_request_bytes` (0 = unlimited) rejects an
/// oversized request up front, with a byte-offset diagnostic, before the JSON
/// parser allocates a DOM for it.
[[nodiscard]] std::optional<RequestEnvelope> parse_request_line(const std::string& line,
                                                               std::size_t dim,
                                                               std::size_t max_request_bytes = 0);

/// Compatibility shim over parse_request_line: the request alone, deadline
/// discarded, no size cap.
[[nodiscard]] std::optional<Request> parse_request(const std::string& line, std::size_t dim);

/// `value` exactly as printf's `%.17g` renders it: the text every coordinate
/// and score takes on the wire. It round-trips every finite double, but is
/// not the shortest text that does (0.1 renders as `0.10000000000000001`).
[[nodiscard]] std::string double_repr(double value);

/// `{"ok":false,"error":"..."}`
[[nodiscard]] std::string error_line(const std::string& message);

/// Typed cancellation response:
/// `{"ok":false,"error":"...","cancelled":true,"reason":"deadline"|"cancelled"}`.
/// `deadline` means the request's own time budget ran out; `cancelled` means
/// the server stopped it (drain). Chaos tests and the bench key off the
/// "cancelled" flag to account these separately from real errors.
[[nodiscard]] std::string cancelled_line(const std::string& message, bool deadline_expired);

/// Load-shed response:
/// `{"ok":false,"error":"server at capacity (...)","shed":true,"retry_after_ms":N}`.
/// The retry-after hint is what LineClient::connect_with_backoff honours.
[[nodiscard]] std::string shed_line(std::size_t max_sessions, std::int64_t retry_after_ms);

/// Connection greeting: session id, dataset shape, current snapshot version.
[[nodiscard]] std::string hello_line(std::uint64_t session_id, std::uint64_t version,
                                     std::size_t dataset_size, std::size_t dim);

/// `[[id,c,...],...]`: the text every points array on the wire takes.
[[nodiscard]] std::string points_text(const data::PointSet& points);

/// Result of a query: kind, snapshot version, payload (points / ranking /
/// coverage as the kind demands) and this call's QueryMetrics.
[[nodiscard]] std::string result_line(const service::Query& query,
                                      const service::QueryResult& result);

/// The same bytes, with the points array taken from `memo` under the
/// query's signature (a top-k ranking renders as above).
[[nodiscard]] std::string result_line(const service::Query& query,
                                      const service::QueryResult& result, PointsMemo& memo);

/// Result of an insert: points folded in and the new snapshot version.
[[nodiscard]] std::string insert_line(std::size_t points, std::uint64_t version);

/// Result of a delete tick: ids removed, ids unknown, new snapshot version.
[[nodiscard]] std::string delete_line(const service::StreamDelta& delta);

/// Subscription acknowledgement: the base version plus its FULL skyline (as
/// `[id,c,...]` point arrays) — the atomic starting replica deltas build on.
[[nodiscard]] std::string subscribed_line(std::uint64_t base_version,
                                          const data::PointSet& base_skyline);

/// The same bytes, with the skyline taken from `memo` under the skyline
/// query's signature: a subscription's base is that version's skyline answer.
[[nodiscard]] std::string subscribed_line(std::uint64_t base_version,
                                          const data::PointSet& base_skyline, PointsMemo& memo);

/// `{"ok":true,"event":"unsubscribed"}` (idempotent).
[[nodiscard]] std::string unsubscribed_line();

/// One published version's skyline diff, pushed to a subscribed session.
[[nodiscard]] std::string delta_line(const service::StreamDelta& delta);

}  // namespace mrsky::server
