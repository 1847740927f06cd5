// Minimal blocking client for the skyline server's line protocol.
//
// One connection, synchronous request/response. This is the building block
// the load bench and the server tests stand on: connect(), read the greeting,
// then request() per line. A failed send or an EOF is a fact the caller
// (bench, test) wants to see, not paper over — the only conveniences layered
// on top are the ones robustness demands (ISSUE 7):
//
//  * an optional receive timeout, so a server that dies mid-response turns
//    into a visible timeout instead of a client thread blocked forever in
//    recv(2);
//  * connect_with_backoff(), which honours the server's structured
//    `retry_after_ms` shed hint with exponential backoff + jitter — the
//    polite way through a loaded server's admission control.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace mrsky::server {

/// Reconnect policy for LineClient::connect_with_backoff().
struct BackoffOptions {
  /// Connection attempts before giving up (>= 1).
  std::size_t max_attempts = 6;
  /// Sleep before retry k (0-based) is `max(hint, base_delay_ms) << k`,
  /// jittered by up to +50%; `hint` is the server's retry_after_ms when the
  /// attempt was shed, 0 when the connection itself failed.
  std::int64_t base_delay_ms = 10;
  /// Hard cap on any single sleep.
  std::int64_t max_delay_ms = 1000;
  /// Seed for the jitter stream (deterministic per client; vary per session
  /// in multi-client harnesses to avoid synchronised retry storms).
  std::uint64_t jitter_seed = 0x5EED;
};

/// What LineClient::connect_with_backoff observed.
struct ConnectResult {
  bool connected = false;
  std::string greeting;        ///< the server's hello line (when connected)
  std::size_t attempts = 0;    ///< connection attempts consumed
  std::size_t sheds = 0;       ///< attempts rejected by admission control
};

class LineClient {
 public:
  /// Compatibility aliases: these started life as nested types.
  using BackoffOptions = server::BackoffOptions;
  using ConnectResult = server::ConnectResult;

  LineClient() = default;
  ~LineClient();

  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;
  LineClient(LineClient&& other) noexcept;
  LineClient& operator=(LineClient&& other) noexcept;

  /// Connects to host:port. Throws mrsky::InvalidArgument on failure. Does
  /// NOT read the greeting — call recv_line() for it.
  void connect(const std::string& host, std::uint16_t port);

  /// Connects with retry: a shed rejection (the server's at-capacity line
  /// with its `retry_after_ms` hint) or a failed connect sleeps with
  /// exponential backoff + jitter and tries again, up to `max_attempts`.
  /// Never throws for capacity/connect failures — the result says what
  /// happened; on success the greeting has already been consumed.
  [[nodiscard]] ConnectResult connect_with_backoff(const std::string& host, std::uint16_t port,
                                                   const BackoffOptions& options = {});

  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// Receive timeout for recv_line()/request() (-1 = block forever, the
  /// default). After a timeout the connection is still usable — a late
  /// response will be picked up by the next recv_line().
  void set_recv_timeout_ms(std::int64_t ms) noexcept { recv_timeout_ms_ = ms; }

  /// True when the LAST recv_line() returned nullopt because of the receive
  /// timeout rather than EOF/error.
  [[nodiscard]] bool timed_out() const noexcept { return timed_out_; }

  /// Sends one request line (newline appended). Returns false if the peer is
  /// gone.
  [[nodiscard]] bool send_line(const std::string& line);

  /// Sends bytes verbatim — no newline, no framing. For clients that
  /// deliberately split a request across writes (slow-client load shapes,
  /// chaos tests); pair with send_raw("\n") to complete the line.
  [[nodiscard]] bool send_raw(const std::string& bytes);

  /// Blocks for the next response line; nullopt on EOF / error / receive
  /// timeout (distinguish with timed_out()).
  [[nodiscard]] std::optional<std::string> recv_line();

  /// send_line + recv_line in one step.
  [[nodiscard]] std::optional<std::string> request(const std::string& line);

  void close();

 private:
  int fd_ = -1;
  std::string buffer_;
  /// buffer_[0, scan_from_) holds no newline: recv_line resumes its search
  /// there.
  std::size_t scan_from_ = 0;
  std::int64_t recv_timeout_ms_ = -1;
  bool timed_out_ = false;
};

}  // namespace mrsky::server
