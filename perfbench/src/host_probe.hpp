// Host-speed probe: fixed, benchmark-owned work timed next to every measured
// operation, so the operation's wall time can be reported in reference-host
// seconds.
//
// The benchmark runs on shared virtual machines whose effective speed drifts.
// On the 4-vCPU reference host the same fig5b-d10 job's median wall moved by
// 12 % (interquartile range) between 10-second windows and by 24 % from the
// fastest window to the slowest, and thread CPU time moved with the wall: the
// drift is contention for the physical core, its caches and the hypervisor,
// not time spent descheduled, so no choice of clock or of order statistic
// removes it. Work timed just before an operation slows down with it.
//
// User-space compute and kernel work drift differently, so the probe times
// one of each: a sort-filter skyline (what the skyline jobs spend their time
// on) and a ping-pong of 13 KB messages with a thread on the same CPU (what a
// request to the server, or a load from a file, spends its time on: system
// calls, wake-ups and copies). Its factor is the geometric mean of the two.
//
// The probe shares no code with the library and is compiled in a target that
// links none of it, so no change to the library, to its build flags or to the
// options its targets export can make the probe faster or slower.
#pragma once

#include <cstddef>
#include <thread>
#include <vector>

namespace perfbench {

class HostProbe {
 public:
  /// Each part's wall time on the reference host: the units that turn a
  /// probe reading into a speed factor.
  static constexpr double kComputeSeconds = 0.010;
  static constexpr double kKernelSeconds = 0.002;

  /// Starts the echo thread, on the CPU the calling thread is pinned to.
  HostProbe();
  ~HostProbe();
  HostProbe(const HostProbe&) = delete;
  HostProbe& operator=(const HostProbe&) = delete;

  /// Runs the probe once and returns the host's speed factor now, reference
  /// seconds per second measured: below 1 while the host runs slower than the
  /// reference, so `wall * factor` is the wall time at reference speed.
  /// Throws std::logic_error if the compute part's answer ever changes, and
  /// std::runtime_error if the ping-pong fails.
  double factor();

  /// Every factor measured so far.
  [[nodiscard]] const std::vector<double>& factors() const noexcept { return factors_; }

 private:
  /// Size of the sort-filter skyline of the fixed rows.
  [[nodiscard]] std::size_t skyline_size() const;
  /// Sends the fixed requests and reads every reply.
  void ping_pong();

  std::vector<double> rows_;  ///< row-major, fixed for every probe
  std::size_t expected_ = 0;
  int fds_[2] = {-1, -1};  ///< socket pair: [0] is ours, [1] the echo thread's
  std::thread echo_;
  std::vector<double> factors_;
};

}  // namespace perfbench
