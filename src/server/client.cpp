#include "src/server/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/common/sync.hpp"

namespace mrsky::server {

namespace {

/// Pulls the integer after `"retry_after_ms":` out of a shed rejection line.
/// 0 when absent — the client then falls back to its own base delay.
std::int64_t parse_retry_after_ms(const std::string& line) {
  static const std::string kKey = "\"retry_after_ms\":";
  const std::size_t pos = line.find(kKey);
  if (pos == std::string::npos) return 0;
  std::int64_t value = 0;
  std::size_t i = pos + kKey.size();
  while (i < line.size() && line[i] >= '0' && line[i] <= '9' && value < 1'000'000'000) {
    value = value * 10 + (line[i] - '0');
    ++i;
  }
  return value;
}

}  // namespace

LineClient::~LineClient() { close(); }

LineClient::LineClient(LineClient&& other) noexcept
    : fd_(other.fd_),
      buffer_(std::move(other.buffer_)),
      scan_from_(other.scan_from_),
      recv_timeout_ms_(other.recv_timeout_ms_),
      timed_out_(other.timed_out_) {
  other.fd_ = -1;
}

LineClient& LineClient::operator=(LineClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    scan_from_ = other.scan_from_;
    recv_timeout_ms_ = other.recv_timeout_ms_;
    timed_out_ = other.timed_out_;
    other.fd_ = -1;
  }
  return *this;
}

void LineClient::connect(const std::string& host, std::uint16_t port) {
  MRSKY_REQUIRE(fd_ < 0, "client already connected");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  MRSKY_REQUIRE(fd >= 0, std::string("socket: ") + std::strerror(errno));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    MRSKY_FAIL("invalid IPv4 address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string msg = "connect " + host + ":" + std::to_string(port) + ": " +
                            std::strerror(errno);
    ::close(fd);
    MRSKY_FAIL(msg);
  }
  fd_ = fd;
  buffer_.clear();
  scan_from_ = 0;
  timed_out_ = false;
}

LineClient::ConnectResult LineClient::connect_with_backoff(const std::string& host,
                                                           std::uint16_t port,
                                                           const BackoffOptions& options) {
  MRSKY_REQUIRE(options.max_attempts >= 1, "max_attempts must be >= 1");
  MRSKY_REQUIRE(options.base_delay_ms >= 1, "base_delay_ms must be >= 1");
  ConnectResult result;
  common::Rng rng(options.jitter_seed);
  for (std::size_t attempt = 0; attempt < options.max_attempts; ++attempt) {
    ++result.attempts;
    std::int64_t hint = 0;
    bool reached = false;
    try {
      connect(host, port);
      reached = true;
    } catch (const std::exception&) {
      // connection refused / transient network failure: plain backoff below
    }
    if (reached) {
      const std::optional<std::string> first = recv_line();
      if (first.has_value() && first->find("\"shed\":true") == std::string::npos) {
        result.connected = true;
        result.greeting = *first;
        return result;
      }
      if (first.has_value()) {
        // Admission control turned us away: honour its retry-after hint.
        ++result.sheds;
        hint = parse_retry_after_ms(*first);
      }
      close();
    }
    if (attempt + 1 == options.max_attempts) break;
    // Exponential backoff from max(hint, base), +[0, 50%) jitter so a fleet
    // of shed clients does not return in lockstep.
    const std::size_t shift = std::min<std::size_t>(attempt, 20);
    std::int64_t delay = std::max(hint, options.base_delay_ms) << shift;
    delay = std::min(delay, options.max_delay_ms);
    delay += static_cast<std::int64_t>(rng.uniform() * 0.5 * static_cast<double>(delay));
    std::this_thread::sleep_for(std::chrono::milliseconds(delay));
  }
  return result;
}

bool LineClient::send_line(const std::string& line) { return send_raw(line + '\n'); }

bool LineClient::send_raw(const std::string& bytes) {
  if (fd_ < 0) return false;
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::string> LineClient::recv_line() {
  timed_out_ = false;
  if (fd_ < 0) return std::nullopt;
  // The timeout budget covers the WHOLE line, not each chunk — a server
  // dribbling a response slower than the budget still times out.
  const common::Deadline deadline = recv_timeout_ms_ < 0
                                        ? common::Deadline{}
                                        : common::Deadline::after_ms(recv_timeout_ms_);
  for (;;) {
    // Only bytes that arrived since the last scan can hold the newline, so a
    // long line costs one pass, not one per received chunk.
    const std::size_t newline = buffer_.find('\n', scan_from_);
    if (newline != std::string::npos) {
      std::string line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      scan_from_ = 0;
      return line;
    }
    scan_from_ = buffer_.size();
    if (deadline.engaged()) {
      const std::int64_t remaining = deadline.remaining_ms();
      if (remaining == 0) {
        timed_out_ = true;
        return std::nullopt;
      }
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(remaining));
      if (ready < 0 && errno == EINTR) continue;
      if (ready == 0) {
        timed_out_ = true;
        return std::nullopt;
      }
      if (ready < 0) return std::nullopt;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return std::nullopt;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::optional<std::string> LineClient::request(const std::string& line) {
  if (!send_line(line)) return std::nullopt;
  return recv_line();
}

void LineClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
  scan_from_ = 0;
  timed_out_ = false;
}

}  // namespace mrsky::server
