#include "host_probe.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>

namespace perfbench {

namespace {

constexpr std::size_t kRows = 2000;
constexpr std::size_t kDim = 10;
/// A skyline read's request and response sizes.
constexpr std::size_t kRequestBytes = 64;
constexpr std::size_t kReplyBytes = 13000;
constexpr int kRoundTrips = 300;

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool dominates(const double* a, const double* b) {
  bool strictly = false;
  for (std::size_t k = 0; k < kDim; ++k) {
    if (a[k] > b[k]) return false;
    strictly = strictly || a[k] < b[k];
  }
  return strictly;
}

/// Reads exactly `n` bytes; false on end of stream or error.
bool read_full(int fd, char* buf, std::size_t n) {
  while (n > 0) {
    const ssize_t got = ::read(fd, buf, n);
    if (got <= 0) return false;
    buf += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

/// Writes all `n` bytes; false on error (no SIGPIPE once the peer is gone).
bool write_full(int fd, const char* buf, std::size_t n) {
  while (n > 0) {
    const ssize_t put = ::send(fd, buf, n, MSG_NOSIGNAL);
    if (put <= 0) return false;
    buf += put;
    n -= static_cast<std::size_t>(put);
  }
  return true;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

HostProbe::HostProbe() : rows_(kRows * kDim) {
  std::uint64_t state = 20120521;
  for (double& x : rows_) x = static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
  expected_ = skyline_size();
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_) != 0) {
    throw std::runtime_error("host probe: socketpair failed");
  }
  // Answers every request with a reply until the probe closes its end.
  echo_ = std::thread([fd = fds_[1]] {
    std::vector<char> request(kRequestBytes), reply(kReplyBytes, 'x');
    while (read_full(fd, request.data(), request.size()) &&
           write_full(fd, reply.data(), reply.size())) {
    }
  });
}

HostProbe::~HostProbe() {
  ::shutdown(fds_[0], SHUT_RDWR);
  echo_.join();
  ::close(fds_[0]);
  ::close(fds_[1]);
}

std::size_t HostProbe::skyline_size() const {
  std::vector<double> sums(kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    sums[i] = std::accumulate(&rows_[i * kDim], &rows_[i * kDim] + kDim, 0.0);
  }
  std::vector<std::uint32_t> order(kRows);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return sums[a] < sums[b] || (sums[a] == sums[b] && a < b);
  });
  // In ascending-sum order no row dominates one before it, so a row the
  // window does not dominate is a skyline row.
  std::vector<const double*> window;
  for (const std::uint32_t i : order) {
    const double* row = &rows_[i * kDim];
    if (std::none_of(window.begin(), window.end(),
                     [&](const double* w) { return dominates(w, row); })) {
      window.push_back(row);
    }
  }
  return window.size();
}

void HostProbe::ping_pong() {
  std::vector<char> request(kRequestBytes, 'q'), reply(kReplyBytes);
  for (int i = 0; i < kRoundTrips; ++i) {
    if (!write_full(fds_[0], request.data(), request.size()) ||
        !read_full(fds_[0], reply.data(), reply.size())) {
      throw std::runtime_error("host probe: the echo thread stopped answering");
    }
  }
}

double HostProbe::factor() {
  const auto start = std::chrono::steady_clock::now();
  const std::size_t size = skyline_size();
  const double compute = seconds_since(start);
  if (size != expected_) throw std::logic_error("host probe: the fixed skyline changed size");
  const auto ping_start = std::chrono::steady_clock::now();
  ping_pong();
  const double kernel = seconds_since(ping_start);
  factors_.push_back(std::sqrt(kComputeSeconds / compute * (kKernelSeconds / kernel)));
  return factors_.back();
}

}  // namespace perfbench
