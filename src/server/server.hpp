// Concurrent multi-session TCP front end over one shared QueryEngine
// (ISSUE 6 tentpole; request-lifecycle hardening in ISSUE 7).
//
// The server binds a loopback listening socket, accepts connections on a
// dedicated accept thread, and serves each admitted connection on its own
// thread: read a line, hand it to the connection's Session, write the
// response line back. All sessions share ONE QueryEngine — the engine's MVCC
// snapshot contract (query_engine.hpp) is what makes that safe, and what the
// stress/bench harnesses verify bitwise.
//
// Admission control: at most `max_sessions` connections are served at once
// (a common::Semaphore slot per session). A connection that arrives with all
// slots busy is shed in one structured error line carrying a
// `retry_after_ms` hint and closed immediately — the §II serving scenario
// prefers a fast, explicit rejection over an unbounded accept queue that
// silently stretches every client's latency.
//
// Robustness (ISSUE 7): connection reads go through poll(2), so an idle (or
// byte-dribbling slowloris) session is reaped after `idle_timeout_ms`
// measured from the start of each line — receiving bytes does NOT reset the
// clock, only completing a line does. Request lines are capped at
// `max_line_bytes`; an overflowing client gets one error line and the
// connection is closed before its line can grow the buffer further. Writes
// carry SO_SNDTIMEO so a stalled reader cannot wedge a session thread.
//
// Streaming (ISSUE 9): a connection whose session holds a subscription is
// served by a pump loop instead of the blocking read: wait briefly on the
// subscription queue, push every pending `delta_line`, then poll the socket
// without blocking for interleaved requests. Regular queries keep working
// while subscribed. A server drain treats a subscribed connection like an
// in-flight query — its token is cancelled so the pump answers with the same
// typed cancellation line before the connection ends.
//
// Lifecycle: start() binds/listens and launches the accept loop; stop()
// drains gracefully — stop accepting, half-close every connection's read
// side (idle sessions see EOF at once; in-flight queries can still answer;
// subscribed connections are instead cancelled through their tokens so the
// pump can emit its typed line), wait `drain_grace_ms`, cooperatively cancel
// the stragglers through their session CancellationTokens (they answer with
// a typed cancellation line), wait one more grace period, force-close
// whatever is left, then join all threads. The destructor calls stop().
// Completed sessions leave their SessionMetrics behind for the operator
// report (completed_sessions()).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/sync.hpp"
#include "src/server/session.hpp"
#include "src/service/query_engine.hpp"

namespace mrsky::server {

struct ServerOptions {
  /// TCP port to bind on 127.0.0.1. 0 = let the kernel pick an ephemeral
  /// port; read it back with port() after start().
  std::uint16_t port = 0;

  /// Concurrent session cap (admission-control slots). Must be >= 1.
  std::size_t max_sessions = 8;

  /// Base directory for relative `insert <path>` requests (empty = process
  /// CWD). The serve CLI defaults this to the input file's directory.
  std::string insert_dir;

  /// listen(2) backlog for not-yet-accepted connections.
  int backlog = 16;

  /// Deadline applied to queries that do not carry their own `deadline_ms`
  /// (-1 = none).
  std::int64_t default_deadline_ms = -1;

  /// Reap a session that has not completed a request line within this many
  /// milliseconds (-1 = never). The clock runs from the moment the server
  /// starts waiting for the line — a slowloris dribbling one byte per tick
  /// cannot keep resetting it.
  std::int64_t idle_timeout_ms = -1;

  /// Longest request line accepted (bytes, 0 = unlimited). An overflowing
  /// connection gets one error line and is closed.
  std::size_t max_line_bytes = std::size_t{1} << 20;

  /// How long stop() waits for in-flight work at each drain step: once for
  /// queries to finish naturally, then once more for cooperative cancellation
  /// to take effect before the force-close.
  std::int64_t drain_grace_ms = 250;

  /// SO_SNDTIMEO on connection sockets: a response write blocked longer than
  /// this fails, ending the session instead of wedging its thread (0 = no
  /// timeout).
  std::int64_t send_timeout_ms = 2000;

  /// The `retry_after_ms` hint sent with a shed (at-capacity) rejection.
  std::int64_t retry_after_ms = 25;
};

class SkylineServer {
 public:
  /// The engine must outlive the server.
  SkylineServer(service::QueryEngine& engine, ServerOptions options);
  ~SkylineServer();

  SkylineServer(const SkylineServer&) = delete;
  SkylineServer& operator=(const SkylineServer&) = delete;

  /// Binds 127.0.0.1:port, starts listening and launches the accept loop.
  /// Throws mrsky::InvalidArgument on bad options or socket failure.
  void start();

  /// Stops accepting and drains: grace period → cooperative cancel → second
  /// grace → force close → join every thread. Idempotent; safe to call with
  /// start() never having run.
  void stop();

  /// The bound port (resolves port=0 to the kernel's choice). Valid after
  /// start().
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Lifetime accept-loop / lifecycle counters.
  struct Stats {
    std::uint64_t accepted = 0;  ///< connections admitted to a session
    std::uint64_t rejected = 0;  ///< connections turned away at capacity
    std::uint64_t shed = 0;      ///< alias of rejected (graceful-degradation name)
    std::uint64_t idle_reaped = 0;      ///< sessions closed by the idle timeout
    std::uint64_t oversized_lines = 0;  ///< sessions closed for a too-long line
    std::uint64_t drain_cancelled = 0;  ///< sessions cooperatively cancelled by stop()
  };
  [[nodiscard]] Stats stats() const;

  /// Live sessions right now (admission slots in use).
  [[nodiscard]] std::size_t active_sessions() const;

  /// Metrics of every session that has ended, in completion order.
  [[nodiscard]] std::vector<SessionMetrics> completed_sessions() const;

 private:
  struct Connection {
    int fd = -1;
    std::thread thread;
    bool done = false;  ///< set by the connection thread as it exits
    common::CancellationToken token;  ///< session-lifetime cancel handle
    /// True while the session holds a standing subscription — stop() cancels
    /// these through the token (typed line) instead of half-closing the read
    /// side (silent EOF).
    std::atomic<bool> subscribed{false};
  };

  void accept_loop();
  void serve_connection(Connection* conn, std::uint64_t session_id);
  /// Joins finished connection threads and drops their entries. Caller must
  /// NOT hold connections_mutex_.
  void reap_finished();
  /// True when every registered connection has finished its session.
  [[nodiscard]] bool all_connections_done() const;

  service::QueryEngine& engine_;
  ServerOptions options_;
  /// Shared by every session, so an answer that repeats across sessions and
  /// versions is not rendered again (DESIGN.md decision 22).
  const std::shared_ptr<PointsMemo> memo_ = std::make_shared<PointsMemo>();

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};

  common::Semaphore slots_;

  mutable std::mutex connections_mutex_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::uint64_t next_session_id_ = 0;

  mutable std::mutex metrics_mutex_;
  std::vector<SessionMetrics> completed_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> idle_reaped_{0};
  std::atomic<std::uint64_t> oversized_lines_{0};
  std::atomic<std::uint64_t> drain_cancelled_{0};
};

}  // namespace mrsky::server
