// Measurement plumbing shared by every workload: the metric catalogue, the
// per-run result and its JSON line, order statistics, and process memory.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One metric the benchmark reports. End-to-end metrics come from untraced
/// runs (`--trace 0`), per-layer metrics from traced runs (`--trace 1`).
struct MetricSpec {
  const char* name;
  const char* unit;
  bool per_layer;
};

/// Every metric, in report order. BENCHMARK.json lists the same names.
[[nodiscard]] const std::vector<MetricSpec>& metric_catalogue();

/// What one run found: operations attempted and failed, and a value for
/// every metric of the run's mode.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;

  void set(const std::string& name, double value) { values[name] = value; }
  /// Counts one checked operation; `ok` false counts it as failed.
  void check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Values a run measures once per input dataset, reported as their mean:
/// averaging datasets drawn from one seed keeps a run's figures from
/// swinging with any single dataset's skyline.
class PhaseValues {
 public:
  void add(const std::string& name, double value) { values_[name].push_back(value); }
  /// Sets every metric added to the mean of its values.
  void report_means(RunResult& result) const;

 private:
  std::map<std::string, std::vector<double>> values_;
};

/// Seed of a run's d-th dataset: distinct for every (seed, d) with d < 16.
[[nodiscard]] inline std::uint64_t dataset_seed(std::uint64_t seed, std::size_t d) {
  return seed * 16 + d;
}

/// The last stdout line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
/// End-to-end metrics must all be present in an untraced run; a per-layer
/// metric a workload does not exercise reads 0. Throws std::logic_error on a
/// missing end-to-end value or a value for an unknown name.
[[nodiscard]] std::string result_json(const RunResult& result, bool traced);

/// Human-readable metric table of the run's mode (printed above the JSON).
[[nodiscard]] std::string result_table(const RunResult& result, bool traced);

/// Median: the middle sample, or the mean of the two middle samples.
/// Requires a non-empty sample.
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile (p in (0, 100]): the smallest sample with at
/// least p% of the sample at or below it. Requires a non-empty sample.
[[nodiscard]] double percentile(std::vector<double> values, double p);

[[nodiscard]] double mean(const std::vector<double>& values);

/// Peak resident set size of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Returns freed heap pages to the kernel (glibc malloc_trim), then resets
/// VmHWM to the current RSS (/proc/self/clear_refs), so the next
/// peak_rss_mb() covers the memory live now plus what happens after this
/// call. Throws std::runtime_error when the kernel refuses.
void reset_peak_rss();

/// Name of the filesystem holding `path` (ext4, tmpfs, overlayfs, ...).
[[nodiscard]] std::string filesystem_name(const std::string& path);

/// The CPUs this process may run on (sched_getaffinity), ascending.
[[nodiscard]] std::vector<int> allowed_cpus();

/// Pins the calling thread, and every thread it starts afterwards, to `cpu`.
/// Returns false, changing nothing, when the kernel refuses.
bool pin_to_cpu(int cpu);

}  // namespace perfbench
