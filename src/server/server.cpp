#include "src/server/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <limits>
#include <optional>
#include <thread>
#include <utility>

#include "src/common/error.hpp"
#include "src/server/protocol.hpp"

namespace mrsky::server {

namespace {

std::string sys_error(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

/// Writes the whole line plus '\n', appended in place: callers move the line
/// in, so framing a response does not copy it. MSG_NOSIGNAL: a client that
/// hung up turns into an error return here, not a process-wide SIGPIPE. With
/// SO_SNDTIMEO set on the socket, a stalled reader makes send() fail with
/// EAGAIN instead of blocking the session thread forever.
bool send_line(int fd, std::string line) {
  line += '\n';
  std::size_t sent = 0;
  while (sent < line.size()) {
    const ssize_t n = ::send(fd, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// How a LineReader::next() call ended.
enum class ReadOutcome {
  kLine,      ///< a full request line was produced
  kEof,       ///< orderly end of stream (client hung up / read side shut down)
  kTimeout,   ///< idle deadline passed without a complete line
  kOverflow,  ///< the line grew past the configured cap
};

/// Buffered line reader over a connection fd: poll(2) for readability with a
/// per-line idle deadline, recv() into a chunk, split on '\n'; a trailing
/// '\r' (telnet-style clients) is stripped.
///
/// The idle deadline is armed when next() starts waiting and is NOT reset by
/// arriving bytes — only by completing a line. A slowloris client dribbling
/// one byte per tick therefore times out exactly like a silent one. The line
/// cap bounds buffer growth: the reader reports kOverflow as soon as the
/// unterminated prefix exceeds it, without waiting for a newline that may
/// never come.
class LineReader {
 public:
  /// Sentinel for next(): use the reader's configured idle timeout.
  static constexpr std::int64_t kConfiguredTimeout = std::numeric_limits<std::int64_t>::min();

  LineReader(int fd, std::int64_t idle_timeout_ms, std::size_t max_line_bytes)
      : fd_(fd), idle_timeout_ms_(idle_timeout_ms), max_line_bytes_(max_line_bytes) {}

  /// `timeout_override_ms` replaces the configured idle timeout for this one
  /// call (0 = non-blocking poll, the subscription pump's interleaved-request
  /// check; <0 = wait forever). Bytes already buffered are consumed either
  /// way, so an override can never lose a partially received request.
  ReadOutcome next(std::string& out, std::int64_t timeout_override_ms = kConfiguredTimeout) {
    const std::int64_t timeout_ms =
        timeout_override_ms == kConfiguredTimeout ? idle_timeout_ms_ : timeout_override_ms;
    const common::Deadline idle =
        timeout_ms < 0 ? common::Deadline{} : common::Deadline::after_ms(timeout_ms);
    for (;;) {
      const std::size_t newline = buffer_.find('\n', scan_from_);
      if (newline != std::string::npos) {
        if (max_line_bytes_ > 0 && newline > max_line_bytes_) return ReadOutcome::kOverflow;
        out = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        scan_from_ = 0;
        if (!out.empty() && out.back() == '\r') out.pop_back();
        return ReadOutcome::kLine;
      }
      scan_from_ = buffer_.size();
      if (max_line_bytes_ > 0 && buffer_.size() > max_line_bytes_) {
        return ReadOutcome::kOverflow;
      }

      if (idle.engaged()) {
        // poll() decides, even at remaining==0: bytes already queued on the
        // socket are still read on a non-blocking (0 ms) call.
        const std::int64_t remaining = idle.remaining_ms();
        pollfd pfd{fd_, POLLIN, 0};
        const int ready = ::poll(&pfd, 1, static_cast<int>(remaining));
        if (ready < 0 && errno == EINTR) continue;
        if (ready == 0) return ReadOutcome::kTimeout;
        if (ready < 0) return ReadOutcome::kEof;
      }

      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        if (buffer_.empty()) return ReadOutcome::kEof;
        // Be liberal in what we accept: a final unframed fragment before EOF
        // is delivered as a line.
        out = std::move(buffer_);
        buffer_.clear();
        scan_from_ = 0;
        if (!out.empty() && out.back() == '\r') out.pop_back();
        return ReadOutcome::kLine;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  std::int64_t idle_timeout_ms_;
  std::size_t max_line_bytes_;
  std::string buffer_;
  std::size_t scan_from_ = 0;
};

}  // namespace

SkylineServer::SkylineServer(service::QueryEngine& engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)), slots_(options_.max_sessions) {
  MRSKY_REQUIRE(options_.max_sessions >= 1, "max_sessions must be >= 1");
  MRSKY_REQUIRE(options_.backlog >= 1, "backlog must be >= 1");
  MRSKY_REQUIRE(options_.drain_grace_ms >= 0, "drain_grace_ms must be >= 0");
  MRSKY_REQUIRE(options_.retry_after_ms >= 0, "retry_after_ms must be >= 0");
}

SkylineServer::~SkylineServer() { stop(); }

void SkylineServer::start() {
  MRSKY_REQUIRE(listen_fd_ < 0, "server already started");

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  MRSKY_REQUIRE(fd >= 0, sys_error("socket"));

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string msg = sys_error("bind 127.0.0.1:" + std::to_string(options_.port));
    ::close(fd);
    MRSKY_FAIL(msg);
  }
  if (::listen(fd, options_.backlog) != 0) {
    const std::string msg = sys_error("listen");
    ::close(fd);
    MRSKY_FAIL(msg);
  }

  // Resolve port=0 to the kernel's ephemeral choice.
  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    const std::string msg = sys_error("getsockname");
    ::close(fd);
    MRSKY_FAIL(msg);
  }
  port_ = ntohs(bound.sin_port);

  listen_fd_ = fd;
  stopping_.store(false, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

bool SkylineServer::all_connections_done() const {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  for (const auto& conn : connections_) {
    if (!conn->done) return false;
  }
  return true;
}

void SkylineServer::stop() {
  if (listen_fd_ < 0 && !accept_thread_.joinable()) return;
  stopping_.store(true, std::memory_order_release);

  if (listen_fd_ >= 0) {
    // shutdown() unblocks a blocked accept(2); close() alone may not.
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  // Graceful drain, step 1: half-close every live connection's READ side.
  // Sessions waiting for a request see EOF immediately and exit; a session
  // mid-query keeps its write side, so its in-flight response (or typed
  // cancellation line) still reaches the client — not a dropped connection.
  // Subscribed connections are cancelled through their tokens instead: their
  // pump loop notices and answers with the typed cancellation line, so a
  // standing subscription ends explicitly, never as a silent EOF.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& conn : connections_) {
      if (conn->done) continue;
      if (conn->subscribed.load(std::memory_order_acquire)) {
        conn->token.request_cancel();
        drain_cancelled_.fetch_add(1, std::memory_order_relaxed);
      } else {
        ::shutdown(conn->fd, SHUT_RD);
      }
    }
  }

  // Step 2: give in-flight queries one grace period to finish naturally.
  const auto wait_until_drained = [this](std::int64_t grace_ms) {
    const common::Deadline grace = common::Deadline::after_ms(grace_ms);
    while (!all_connections_done() && !grace.expired()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  };
  wait_until_drained(options_.drain_grace_ms);

  // Step 3: cooperatively cancel the stragglers. Their pipelines observe the
  // token at the next split boundary, unwind with QueryCancelled, and the
  // session answers with a well-formed cancellation line before exiting.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& conn : connections_) {
      if (!conn->done) {
        // Don't double-count a subscribed connection already cancelled in
        // step 1 (request_cancel itself is idempotent).
        if (conn->token.stop_reason() != common::StopReason::kCancelled) {
          drain_cancelled_.fetch_add(1, std::memory_order_relaxed);
        }
        conn->token.request_cancel();
      }
    }
  }
  wait_until_drained(options_.drain_grace_ms);

  // Step 4: anything still alive is beyond cooperation (e.g. blocked in a
  // send to a stalled client past SO_SNDTIMEO) — sever it.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (const auto& conn : connections_) {
      if (!conn->done) ::shutdown(conn->fd, SHUT_RDWR);
    }
  }

  for (;;) {
    std::unique_ptr<Connection> conn;
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      if (connections_.empty()) break;
      conn = std::move(connections_.back());
      connections_.pop_back();
    }
    if (conn->thread.joinable()) conn->thread.join();
  }
}

SkylineServer::Stats SkylineServer::stats() const {
  Stats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.shed = s.rejected;
  s.idle_reaped = idle_reaped_.load(std::memory_order_relaxed);
  s.oversized_lines = oversized_lines_.load(std::memory_order_relaxed);
  s.drain_cancelled = drain_cancelled_.load(std::memory_order_relaxed);
  return s;
}

std::size_t SkylineServer::active_sessions() const {
  return options_.max_sessions - slots_.available();
}

std::vector<SessionMetrics> SkylineServer::completed_sessions() const {
  std::lock_guard<std::mutex> lock(metrics_mutex_);
  return completed_;
}

void SkylineServer::accept_loop() {
  for (;;) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof peer;
    const int fd =
        ::accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer), &peer_len);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listening socket shut down (stop()) or fatal error
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      return;
    }

    // Admission control: take a session slot or shed the connection with one
    // structured rejection line carrying the retry-after hint. The slot is
    // released by the connection thread.
    if (!slots_.try_acquire()) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      send_line(fd, shed_line(options_.max_sessions, options_.retry_after_ms));
      ::close(fd);
      continue;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);

    reap_finished();

    std::lock_guard<std::mutex> lock(connections_mutex_);
    const std::uint64_t session_id = ++next_session_id_;
    connections_.push_back(std::make_unique<Connection>());
    Connection* conn = connections_.back().get();
    conn->fd = fd;
    conn->token = common::CancellationToken::make();
    conn->thread = std::thread(
        [this, conn, session_id] { serve_connection(conn, session_id); });
  }
}

void SkylineServer::serve_connection(Connection* conn, std::uint64_t session_id) {
  if (options_.send_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = options_.send_timeout_ms / 1000;
    tv.tv_usec = (options_.send_timeout_ms % 1000) * 1000;
    ::setsockopt(conn->fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }

  SessionOptions sopts;
  sopts.insert_dir = options_.insert_dir;
  sopts.default_deadline_ms = options_.default_deadline_ms;
  sopts.max_request_bytes = options_.max_line_bytes;
  Session session(session_id, engine_, std::move(sopts), conn->token, memo_);

  if (send_line(conn->fd, session.greeting())) {
    LineReader reader(conn->fd, options_.idle_timeout_ms, options_.max_line_bytes);
    bool quit = false;
    while (!quit) {
      const bool subscribed = session.subscription() != nullptr;
      conn->subscribed.store(subscribed, std::memory_order_release);

      std::string line;
      ReadOutcome outcome;
      if (subscribed) {
        // Subscription pump: a drain cancel ends the subscription with the
        // same typed line a cancelled query gets; otherwise wait briefly on
        // the delta queue, push everything pending, then poll the socket
        // without blocking for an interleaved request.
        if (conn->token.stop_reason() == common::StopReason::kCancelled) {
          send_line(conn->fd, cancelled_line("subscription cancelled: server draining",
                                             /*deadline_expired=*/false));
          break;
        }
        const service::StreamSubscriptionPtr& sub = session.subscription();
        std::optional<service::StreamDelta> delta = sub->next(/*timeout_ms=*/25);
        bool write_failed = false;
        std::uint64_t pushed = 0;
        while (delta.has_value()) {
          if (!send_line(conn->fd, delta_line(*delta))) {
            write_failed = true;
            break;
          }
          ++pushed;
          delta = sub->next(/*timeout_ms=*/0);
        }
        session.note_deltas(pushed);
        if (write_failed) break;
        outcome = reader.next(line, /*timeout_override_ms=*/0);
        if (outcome == ReadOutcome::kTimeout) continue;  // no request pending: keep pumping
      } else {
        outcome = reader.next(line);
        if (outcome == ReadOutcome::kTimeout) {
          idle_reaped_.fetch_add(1, std::memory_order_relaxed);
          send_line(conn->fd, error_line("idle timeout: no complete request within " +
                                         std::to_string(options_.idle_timeout_ms) + " ms"));
          break;
        }
      }
      if (outcome == ReadOutcome::kEof) break;  // client hung up / drain
      if (outcome == ReadOutcome::kOverflow) {
        oversized_lines_.fetch_add(1, std::memory_order_relaxed);
        send_line(conn->fd, error_line("request line exceeds " +
                                       std::to_string(options_.max_line_bytes) + " bytes"));
        break;
      }
      std::string response = session.handle_line(line, quit);
      // Publish the subscription state before the ack leaves the socket:
      // once the client has read the "subscribed" response, stop() must see
      // this connection as subscribed, or a drain racing the next loop
      // iteration would half-close it instead of sending the typed line.
      conn->subscribed.store(session.subscription() != nullptr,
                             std::memory_order_release);
      if (response.empty()) continue;  // blank / comment line
      if (!send_line(conn->fd, std::move(response))) break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(metrics_mutex_);
    completed_.push_back(session.metrics());
  }
  slots_.release();
  // done is published and the fd closed under the same lock stop() uses to
  // decide whether to shutdown() this fd — no window where stop() touches a
  // closed (possibly reused) descriptor.
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    conn->done = true;
    ::close(conn->fd);
    conn->fd = -1;
  }
}

void SkylineServer::reap_finished() {
  std::vector<std::unique_ptr<Connection>> finished;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if ((*it)->done) {
        finished.push_back(std::move(*it));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
  }
}

}  // namespace mrsky::server
