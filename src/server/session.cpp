#include "src/server/session.hpp"

#include <algorithm>
#include <filesystem>
#include <utility>

#include "src/common/error.hpp"
#include "src/dataset/source.hpp"

namespace mrsky::server {

namespace {

/// Clears the token's deadline on every exit path out of a query — including
/// an InvalidArgument thrown mid-execute — so one request's budget can never
/// leak into the next request on the same session.
class DeadlineGuard {
 public:
  explicit DeadlineGuard(common::CancellationToken& token) : token_(token) {}
  DeadlineGuard(const DeadlineGuard&) = delete;
  DeadlineGuard& operator=(const DeadlineGuard&) = delete;
  ~DeadlineGuard() { token_.clear_deadline(); }

 private:
  common::CancellationToken& token_;
};

}  // namespace

void SessionMetrics::aggregate(const service::QueryMetrics& m) {
  ++queries;
  if (m.cache_hit) ++cache_hits;
  points_returned += m.result_points;
  wall_ns_total += m.wall_ns;
  wall_ns_max = std::max(wall_ns_max, m.wall_ns);
  last_version = std::max(last_version, m.dataset_version);
}

std::string SessionMetrics::to_json() const {
  return "{\"ok\":true,\"session\":" + std::to_string(id) +
         ",\"requests\":" + std::to_string(requests) +
         ",\"queries\":" + std::to_string(queries) +
         ",\"cache_hits\":" + std::to_string(cache_hits) +
         ",\"inserts\":" + std::to_string(inserts) +
         ",\"points_inserted\":" + std::to_string(points_inserted) +
         ",\"deletes\":" + std::to_string(deletes) +
         ",\"points_deleted\":" + std::to_string(points_deleted) +
         ",\"deltas_sent\":" + std::to_string(deltas_sent) +
         ",\"points_returned\":" + std::to_string(points_returned) +
         ",\"errors\":" + std::to_string(errors) +
         ",\"cancelled\":" + std::to_string(cancelled) +
         ",\"deadline_missed\":" + std::to_string(deadline_missed) +
         ",\"wall_ns_total\":" + std::to_string(wall_ns_total) +
         ",\"wall_ns_max\":" + std::to_string(wall_ns_max) +
         ",\"last_version\":" + std::to_string(last_version) + "}";
}

Session::Session(std::uint64_t id, service::QueryEngine& engine, std::string insert_dir)
    : Session(id, engine, SessionOptions{std::move(insert_dir), -1, 0}) {}

Session::Session(std::uint64_t id, service::QueryEngine& engine, SessionOptions options,
                 common::CancellationToken token, std::shared_ptr<PointsMemo> memo)
    : engine_(engine),
      options_(std::move(options)),
      token_(std::move(token)),
      memo_(memo != nullptr ? std::move(memo) : std::make_shared<PointsMemo>()) {
  if (!token_.armed()) token_ = common::CancellationToken::make();
  metrics_.id = id;
}

std::string Session::greeting() const {
  const service::EngineSnapshotPtr snap = engine_.snapshot();
  return hello_line(metrics_.id, snap->version, snap->dataset->size(), snap->dataset->dim());
}

std::string Session::handle_line(const std::string& line, bool& quit) {
  quit = false;
  try {
    const std::optional<RequestEnvelope> envelope = parse_request_line(
        line, engine_.snapshot()->dataset->dim(), options_.max_request_bytes);
    if (!envelope.has_value()) return "";  // blank / comment: no response
    ++metrics_.requests;
    const std::int64_t deadline_ms =
        envelope->deadline_ms >= 0 ? envelope->deadline_ms : options_.default_deadline_ms;
    return dispatch(envelope->request, deadline_ms, quit);
  } catch (const std::exception& e) {
    ++metrics_.requests;
    ++metrics_.errors;
    return error_line(e.what());
  }
}

std::string Session::dispatch(const Request& request, std::int64_t deadline_ms, bool& quit) {
  if (std::holds_alternative<QuitRequest>(request)) {
    quit = true;
    return "{\"ok\":true,\"bye\":" + std::to_string(metrics_.id) + "}";
  }
  if (std::holds_alternative<MetricsRequest>(request)) return metrics_.to_json();
  if (std::holds_alternative<StatsRequest>(request)) {
    const service::QueryEngine::Stats s = engine_.stats();
    const service::EngineSnapshotPtr snap = engine_.snapshot();
    return "{\"ok\":true,\"queries\":" + std::to_string(s.queries) +
           ",\"cache_hits\":" + std::to_string(s.cache_hits) +
           ",\"fits_computed\":" + std::to_string(s.fits_computed) +
           ",\"fit_reuses\":" + std::to_string(s.fit_reuses) +
           ",\"pipeline_runs\":" + std::to_string(s.pipeline_runs) +
           ",\"incremental_serves\":" + std::to_string(s.incremental_serves) +
           ",\"inserts\":" + std::to_string(s.inserts) +
           ",\"points_inserted\":" + std::to_string(s.points_inserted) +
           ",\"cache_evictions\":" + std::to_string(s.cache_evictions) +
           ",\"queries_cancelled\":" + std::to_string(s.queries_cancelled) +
           ",\"dataset_points\":" + std::to_string(snap->dataset->size()) +
           ",\"version\":" + std::to_string(snap->version) + "}";
  }
  if (const auto* insert = std::get_if<service::InsertCommand>(&request)) {
    return run_insert_file(insert->path);
  }
  if (const auto* inline_insert = std::get_if<InsertInline>(&request)) {
    return run_insert(inline_insert->points, inline_insert->ttl_ticks);
  }
  if (const auto* del = std::get_if<service::DeleteCommand>(&request)) {
    return run_delete(*del);
  }
  if (std::holds_alternative<SubscribeRequest>(request)) return run_subscribe();
  if (std::holds_alternative<UnsubscribeRequest>(request)) {
    if (sub_) {
      sub_->close();
      sub_.reset();
    }
    return unsubscribed_line();  // idempotent: unsubscribing twice is fine
  }
  return run_query(std::get<service::Query>(request), deadline_ms);
}

std::string Session::run_query(const service::Query& query, std::int64_t deadline_ms) {
  // One token serves the whole session: the deadline is (re-)armed around
  // each query, while a server-side cancel latched at any point stops this
  // and every later query on the session.
  const DeadlineGuard guard(token_);
  if (deadline_ms >= 0) token_.set_deadline(common::Deadline::after_ms(deadline_ms));
  try {
    const service::QueryResult result = engine_.execute(query, token_);
    metrics_.aggregate(result.metrics);
    return result_line(query, result, *memo_);
  } catch (const QueryCancelled& e) {
    // Typed abort: accounted in its own counters, not as an error — the
    // request was well-formed, the server just stopped doing the work.
    if (e.deadline_expired()) {
      ++metrics_.deadline_missed;
    } else {
      ++metrics_.cancelled;
    }
    return cancelled_line(e.what(), e.deadline_expired());
  }
}

std::string Session::run_insert_file(const std::string& path) {
  // Server-side file insert: resolve against the configured insert dir, not
  // wherever the server process was launched (same policy as the .mrq fix).
  std::filesystem::path resolved(path);
  if (resolved.is_relative() && !options_.insert_dir.empty()) {
    resolved = std::filesystem::path(options_.insert_dir) / resolved;
  }
  // Verbatim load (no normalisation): insert batches must already be in the
  // resident dataset's attribute space.
  return run_insert(data::read_points(resolved.string()), /*ttl_ticks=*/0);
}

std::string Session::run_insert(const data::PointSet& points, std::int64_t ttl_ticks) {
  std::uint64_t version = 0;
  if (ttl_ticks > 0) {
    // TTL rows must go through the streaming path: insert_batch has no way to
    // carry per-row expiries.
    service::MutationBatch batch;
    batch.inserts = points;
    batch.ttl_ticks.assign(points.size(), ttl_ticks);
    version = engine_.apply_batch(batch).snapshot->version;
  } else {
    version = engine_.insert_batch(points);
  }
  ++metrics_.inserts;
  metrics_.points_inserted += points.size();
  metrics_.last_version = std::max(metrics_.last_version, version);
  return insert_line(points.size(), version);
}

std::string Session::run_delete(const service::DeleteCommand& command) {
  service::MutationBatch batch;
  batch.deletes = command.ids;
  const service::ApplyResult r = engine_.apply_batch(batch);
  ++metrics_.deletes;
  metrics_.points_deleted += r.delta.deleted;
  metrics_.last_version = std::max(metrics_.last_version, r.delta.version);
  return delete_line(r.delta);
}

std::string Session::run_subscribe() {
  if (sub_ && !sub_->closed()) {
    return error_line("already subscribed (send `unsubscribe` first)");
  }
  sub_ = engine_.subscribe();
  metrics_.last_version = std::max(metrics_.last_version, sub_->base_version());
  return subscribed_line(sub_->base_version(), sub_->base_skyline(), *memo_);
}

}  // namespace mrsky::server
