#include "src/server/protocol.hpp"

#include <charconv>
#include <cmath>
#include <concepts>
#include <optional>
#include <sstream>
#include <string_view>

#include "src/common/error.hpp"
#include "src/common/json.hpp"
#include "src/server/points_memo.hpp"

namespace mrsky::server {

namespace {

/// Converts a JSON number to a size, rejecting negatives and fractions —
/// `"k":2.5` is a client bug, not a request for k=2.
std::size_t to_size(const common::JsonValue& v, const std::string& what) {
  MRSKY_REQUIRE(v.is_number(), what + " must be a number");
  const double d = v.as_number();
  MRSKY_REQUIRE(d >= 0.0 && d == std::floor(d) && d <= 1e15,
                what + " must be a non-negative integer");
  return static_cast<std::size_t>(d);
}

/// Extracts `"deadline_ms"` (optional; non-negative integer) from a JSON
/// request object. -1 = not present.
std::int64_t parse_json_deadline(const common::JsonValue& doc) {
  const common::JsonValue* v = doc.find("deadline_ms");
  if (v == nullptr) return -1;
  MRSKY_REQUIRE(v->is_number(), "deadline_ms must be a number");
  const double d = v->as_number();
  MRSKY_REQUIRE(d >= 0.0 && d == std::floor(d) && d <= 1e12,
                "deadline_ms must be a non-negative integer of milliseconds");
  return static_cast<std::int64_t>(d);
}

Request parse_json_request(const common::JsonValue& doc, std::size_t dim) {
  MRSKY_REQUIRE(doc.is_object(), "request must be a JSON object");

  if (const common::JsonValue* command = doc.find("command"); command != nullptr) {
    const std::string& verb = command->as_string();
    if (verb == "metrics") return MetricsRequest{};
    if (verb == "stats") return StatsRequest{};
    if (verb == "quit") return QuitRequest{};
    if (verb == "subscribe") return SubscribeRequest{};
    if (verb == "unsubscribe") return UnsubscribeRequest{};
    throw InvalidArgument("unknown command '" + verb +
                          "' (expected metrics|stats|quit|subscribe|unsubscribe)");
  }

  if (const common::JsonValue* del = doc.find("delete"); del != nullptr) {
    MRSKY_REQUIRE(del->is_array(), "delete expects an array of point ids");
    service::DeleteCommand cmd;
    for (const common::JsonValue& id : del->as_array()) {
      MRSKY_REQUIRE(id.is_number(), "point id must be a number");
      const std::optional<data::PointId> checked = data::point_id_from(id.as_number());
      MRSKY_REQUIRE(checked.has_value(), "point id must be an integer in [0, 4294967295]");
      cmd.ids.push_back(*checked);
    }
    return cmd;
  }

  if (const common::JsonValue* insert = doc.find("insert"); insert != nullptr) {
    std::int64_t ttl = 0;
    if (const common::JsonValue* t = doc.find("ttl_ticks"); t != nullptr) {
      ttl = static_cast<std::int64_t>(to_size(*t, "ttl_ticks"));
      MRSKY_REQUIRE(insert->is_array(), "ttl_ticks applies to inline insert rows only");
    }
    if (insert->is_string()) return service::InsertCommand{insert->as_string()};
    MRSKY_REQUIRE(insert->is_array(),
                  "insert expects a file path or an array of point rows");
    InsertInline batch{data::PointSet(dim), ttl};
    std::vector<double> row;
    for (const common::JsonValue& item : insert->as_array()) {
      MRSKY_REQUIRE(item.is_array(), "insert rows must be arrays of numbers");
      row.clear();
      for (const common::JsonValue& coord : item.as_array()) {
        MRSKY_REQUIRE(coord.is_number(), "insert coordinates must be numbers");
        row.push_back(coord.as_number());
      }
      MRSKY_REQUIRE(row.size() == dim,
                    "insert row has " + std::to_string(row.size()) +
                        " coordinates, dataset has " + std::to_string(dim) + " attributes");
      batch.points.push_back(row);
    }
    return batch;
  }

  const common::JsonValue* query = doc.find("query");
  MRSKY_REQUIRE(query != nullptr,
                "request needs one of \"query\", \"insert\" or \"command\"");
  const std::string& kind = query->as_string();

  if (kind == "skyline") return service::Query{service::SkylineQuery{}};
  if (kind == "subspace") {
    const common::JsonValue* attrs = doc.find("attributes");
    MRSKY_REQUIRE(attrs != nullptr && attrs->is_array(),
                  "subspace needs an \"attributes\" array");
    service::SubspaceQuery q;
    for (const common::JsonValue& a : attrs->as_array()) {
      q.attributes.push_back(to_size(a, "attribute index"));
    }
    return service::Query{std::move(q)};
  }
  if (kind == "skyband") {
    const common::JsonValue* k = doc.find("k");
    MRSKY_REQUIRE(k != nullptr, "skyband needs \"k\"");
    return service::Query{service::KSkybandQuery{to_size(*k, "k")}};
  }
  if (kind == "representative") {
    const common::JsonValue* k = doc.find("k");
    MRSKY_REQUIRE(k != nullptr, "representative needs \"k\"");
    return service::Query{service::RepresentativeQuery{to_size(*k, "k")}};
  }
  if (kind == "topk") {
    const common::JsonValue* k = doc.find("k");
    const common::JsonValue* weights = doc.find("weights");
    MRSKY_REQUIRE(k != nullptr, "topk needs \"k\"");
    MRSKY_REQUIRE(weights != nullptr && weights->is_array(),
                  "topk needs a \"weights\" array");
    service::TopKWeightedQuery q;
    q.k = to_size(*k, "k");
    for (const common::JsonValue& w : weights->as_array()) {
      MRSKY_REQUIRE(w.is_number(), "weights must be numbers");
      q.weights.push_back(w.as_number());
    }
    return service::Query{std::move(q)};
  }
  throw InvalidArgument("unknown query kind '" + kind +
                        "' (expected skyline|subspace|skyband|representative|topk)");
}

/// Strips a trailing `deadline=<ms>` token off an `.mrq`-form request line.
/// Returns the deadline (-1 when absent) and erases the token from `body`.
std::int64_t strip_script_deadline(std::string& body) {
  const std::size_t last_end = body.find_last_not_of(" \t\r");
  if (last_end == std::string::npos) return -1;
  std::size_t tok_begin = body.find_last_of(" \t", last_end);
  tok_begin = tok_begin == std::string::npos ? 0 : tok_begin + 1;
  const std::string token = body.substr(tok_begin, last_end - tok_begin + 1);
  constexpr std::string_view kPrefix = "deadline=";
  if (token.compare(0, kPrefix.size(), kPrefix) != 0) return -1;
  const std::string digits = token.substr(kPrefix.size());
  MRSKY_REQUIRE(!digits.empty() && digits.find_first_not_of("0123456789") == std::string::npos &&
                    digits.size() <= 12,
                "deadline= expects a non-negative integer of milliseconds");
  body.erase(tok_begin);
  MRSKY_REQUIRE(body.find_first_not_of(" \t\r") != std::string::npos,
                "deadline= must follow a request, not stand alone");
  return std::stoll(digits);
}

}  // namespace

std::optional<RequestEnvelope> parse_request_line(const std::string& line, std::size_t dim,
                                                  std::size_t max_request_bytes) {
  // Size guard FIRST: a hostile request must be rejected before the JSON
  // parser materialises a DOM for it. The diagnostic names the byte offset
  // where the limit was crossed so a streaming client can find the cut.
  if (max_request_bytes > 0 && line.size() > max_request_bytes) {
    throw InvalidArgument("request is " + std::to_string(line.size()) +
                          " bytes, exceeding the " + std::to_string(max_request_bytes) +
                          "-byte limit at byte offset " + std::to_string(max_request_bytes));
  }
  std::size_t first = line.find_first_not_of(" \t\r");
  if (first == std::string::npos) return std::nullopt;  // blank line: no request
  if (line[first] == '#') return std::nullopt;          // comment: no request
  if (line[first] == '{') {
    const common::JsonValue doc = common::JsonValue::parse(line.substr(first));
    MRSKY_REQUIRE(doc.is_object(), "request must be a JSON object");
    return RequestEnvelope{parse_json_request(doc, dim), parse_json_deadline(doc)};
  }

  std::string body = line;
  const std::int64_t deadline_ms = strip_script_deadline(body);

  // Bare control verbs, then the .mrq script grammar for everything else.
  std::istringstream probe(body);
  std::string verb;
  probe >> verb;
  if (verb == "metrics") return RequestEnvelope{MetricsRequest{}, deadline_ms};
  if (verb == "stats") return RequestEnvelope{StatsRequest{}, deadline_ms};
  if (verb == "quit") return RequestEnvelope{QuitRequest{}, deadline_ms};
  if (verb == "subscribe") return RequestEnvelope{SubscribeRequest{}, deadline_ms};
  if (verb == "unsubscribe") return RequestEnvelope{UnsubscribeRequest{}, deadline_ms};

  std::istringstream one_line(body);
  std::vector<service::ScriptCommand> commands = service::parse_query_script(one_line);
  MRSKY_REQUIRE(commands.size() == 1, "expected exactly one command per line");
  if (auto* insert = std::get_if<service::InsertCommand>(&commands.front())) {
    return RequestEnvelope{std::move(*insert), deadline_ms};
  }
  if (auto* del = std::get_if<service::DeleteCommand>(&commands.front())) {
    return RequestEnvelope{std::move(*del), deadline_ms};
  }
  return RequestEnvelope{std::get<service::Query>(std::move(commands.front())), deadline_ms};
}

std::optional<Request> parse_request(const std::string& line, std::size_t dim) {
  std::optional<RequestEnvelope> envelope = parse_request_line(line, dim);
  if (!envelope.has_value()) return std::nullopt;
  return std::move(envelope->request);
}

namespace {

// The response writer. Every id, coordinate and score goes straight into the
// response string through std::to_chars, into capacity reserved once per
// line: no format-string parse and no temporary string per number.

/// Longest `%.17g` text of a finite double: sign, 17 digits, the point and
/// `e-308`.
constexpr std::size_t kMaxDoubleChars = 24;
/// Longest decimal text of a 64-bit integer, sign included.
constexpr std::size_t kMaxIntChars = 20;
/// Room for the fields a line appends after its header besides the arrays
/// themselves: field names, brackets, `total_covered` and the metrics object.
constexpr std::size_t kMaxTrailerChars = 256;

/// Appends `value` exactly as printf's `%.17g` renders it: std::to_chars in
/// general format at precision 17 is specified as that conversion.
void append_double(std::string& out, double value) {
  char buf[32];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value, std::chars_format::general, 17).ptr);
}

void append_int(std::string& out, std::integral auto value) {
  char buf[kMaxIntChars];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

/// Upper bound on what append_points writes for `points`.
std::size_t points_chars(const data::PointSet& points) {
  return 2 + points.size() * (3 + kMaxIntChars + points.dim() * (1 + kMaxDoubleChars));
}

/// Appends `[[id,c,...],...]`, the point shape every response uses.
void append_points(std::string& out, const data::PointSet& points) {
  out += '[';
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i > 0) out += ',';
    out += '[';
    append_int(out, points.id(i));
    for (double c : points.point(i)) {
      out += ',';
      append_double(out, c);
    }
    out += ']';
  }
  out += ']';
}

/// Appends `[i,...]`.
template <class Int>
void append_ints(std::string& out, const std::vector<Int>& values) {
  out += '[';
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    append_int(out, values[i]);
  }
  out += ']';
}

/// result_line with its points array written by `put_points(out)`, which
/// appends at most `points_size` bytes: the plain and the memo overloads
/// share every other byte.
template <class PutPoints>
std::string render_result(const service::Query& query, const service::QueryResult& result,
                          std::size_t points_size, PutPoints&& put_points) {
  const service::QueryMetrics& m = result.metrics;
  std::string out = "{\"ok\":true,\"kind\":\"" + service::query_kind(query) +
                    "\",\"version\":" + std::to_string(m.dataset_version);
  out.reserve(out.size() + kMaxTrailerChars + points_size +
              result.ranking.size() * (4 + kMaxIntChars + kMaxDoubleChars) +
              result.coverage.size() * (1 + kMaxIntChars));

  if (std::holds_alternative<service::TopKWeightedQuery>(query)) {
    out += ",\"ranking\":[";
    for (std::size_t i = 0; i < result.ranking.size(); ++i) {
      if (i > 0) out += ',';
      out += '[';
      append_int(out, result.ranking[i].id);
      out += ',';
      append_double(out, result.ranking[i].score);
      out += ']';
    }
    out += ']';
  } else {
    out += ",\"points\":";
    put_points(out);
    if (std::holds_alternative<service::RepresentativeQuery>(query)) {
      out += ",\"coverage\":";
      append_ints(out, result.coverage);
      out += ",\"total_covered\":";
      append_int(out, result.total_covered);
    }
  }

  out += ",\"metrics\":{\"cache_hit\":" + std::string(m.cache_hit ? "true" : "false") +
         ",\"fit_reused\":" + (m.fit_reused ? "true" : "false") +
         ",\"dominance_tests\":" + std::to_string(m.dominance_tests) +
         ",\"wall_ns\":" + std::to_string(m.wall_ns) +
         ",\"result_points\":" + std::to_string(m.result_points) + "}}";
  return out;
}

/// subscribed_line up to its skyline.
std::string subscribed_head(std::uint64_t base_version) {
  return "{\"ok\":true,\"event\":\"subscribed\",\"version\":" + std::to_string(base_version) +
         ",\"skyline\":";
}

}  // namespace

std::string points_text(const data::PointSet& points) {
  std::string out;
  out.reserve(points_chars(points));
  append_points(out, points);
  return out;
}

std::string double_repr(double value) {
  std::string out;
  append_double(out, value);
  return out;
}

std::string error_line(const std::string& message) {
  return "{\"ok\":false,\"error\":\"" + common::json_escape(message) + "\"}";
}

std::string cancelled_line(const std::string& message, bool deadline_expired) {
  return "{\"ok\":false,\"error\":\"" + common::json_escape(message) +
         "\",\"cancelled\":true,\"reason\":\"" +
         (deadline_expired ? "deadline" : "cancelled") + "\"}";
}

std::string shed_line(std::size_t max_sessions, std::int64_t retry_after_ms) {
  return "{\"ok\":false,\"error\":\"server at capacity (" + std::to_string(max_sessions) +
         " sessions)\",\"shed\":true,\"retry_after_ms\":" + std::to_string(retry_after_ms) + "}";
}

std::string hello_line(std::uint64_t session_id, std::uint64_t version,
                       std::size_t dataset_size, std::size_t dim) {
  return "{\"ok\":true,\"server\":\"mrsky-skyline\",\"session\":" + std::to_string(session_id) +
         ",\"version\":" + std::to_string(version) +
         ",\"points\":" + std::to_string(dataset_size) + ",\"dim\":" + std::to_string(dim) + "}";
}

std::string result_line(const service::Query& query, const service::QueryResult& result) {
  return render_result(query, result, points_chars(result.points),
                       [&](std::string& out) { append_points(out, result.points); });
}

std::string result_line(const service::Query& query, const service::QueryResult& result,
                        PointsMemo& memo) {
  if (std::holds_alternative<service::TopKWeightedQuery>(query)) return result_line(query, result);
  const std::shared_ptr<const std::string> text =
      memo.text(service::query_signature(query), result.points);
  return render_result(query, result, text->size(),
                       [&](std::string& out) { out += *text; });
}

std::string insert_line(std::size_t points, std::uint64_t version) {
  return "{\"ok\":true,\"inserted\":" + std::to_string(points) +
         ",\"version\":" + std::to_string(version) + "}";
}

std::string delete_line(const service::StreamDelta& delta) {
  return "{\"ok\":true,\"deleted\":" + std::to_string(delta.deleted) +
         ",\"missing\":" + std::to_string(delta.missing_deletes) +
         ",\"expired\":" + std::to_string(delta.expired) +
         ",\"version\":" + std::to_string(delta.version) + "}";
}

std::string subscribed_line(std::uint64_t base_version, const data::PointSet& base_skyline) {
  std::string out = subscribed_head(base_version);
  out.reserve(out.size() + kMaxTrailerChars + points_chars(base_skyline));
  append_points(out, base_skyline);
  out += '}';
  return out;
}

std::string subscribed_line(std::uint64_t base_version, const data::PointSet& base_skyline,
                            PointsMemo& memo) {
  const std::shared_ptr<const std::string> text =
      memo.text(service::query_signature(service::SkylineQuery{}), base_skyline);
  std::string out = subscribed_head(base_version);
  out.reserve(out.size() + kMaxTrailerChars + text->size());
  out += *text;
  out += '}';
  return out;
}

std::string unsubscribed_line() { return "{\"ok\":true,\"event\":\"unsubscribed\"}"; }

std::string delta_line(const service::StreamDelta& delta) {
  std::string out = "{\"ok\":true,\"event\":\"delta\",\"version\":" +
                    std::to_string(delta.version) + ",\"tick\":" + std::to_string(delta.tick) +
                    ",\"inserted\":" + std::to_string(delta.inserted) +
                    ",\"deleted\":" + std::to_string(delta.deleted) +
                    ",\"expired\":" + std::to_string(delta.expired) +
                    ",\"missing\":" + std::to_string(delta.missing_deletes) + ",\"entered\":";
  out.reserve(out.size() + kMaxTrailerChars + points_chars(delta.entered) +
              delta.left.size() * (1 + kMaxIntChars));
  append_points(out, delta.entered);
  out += ",\"left\":";
  append_ints(out, delta.left);
  out += '}';
  return out;
}

}  // namespace mrsky::server
