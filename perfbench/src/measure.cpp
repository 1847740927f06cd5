#include "measure.hpp"

#include <malloc.h>
#include <sched.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricSpec>& metric_catalogue() {
  static const std::vector<MetricSpec> catalogue = {
      // End to end: what a user of the library, CLI or server waits for.
      {"setup_s", "s", false},
      {"peak_rss_mb", "MB", false},
      {"job_p50_s", "s", false},
      {"sim_job_s", "s", false},
      {"read_p50_ms", "ms", false},
      {"write_p50_ms", "ms", false},
      {"serve_ms_per_req", "ms", false},
      // Per layer, from the traced run.
      {"dataset.ingest_s", "s", true},
      {"dataset.convert_s", "s", true},
      {"dataset.seam_read_mb", "MB", true},
      {"dataset.seam_blocks_read", "count", true},
      {"dataset.read_block_s", "s", true},
      {"core.pruned_frac", "ratio", true},
      {"core.block_prune_s", "s", true},
      {"core.self_s", "s", true},
      {"core.merge_rounds", "count", true},
      {"partition.fit_s", "s", true},
      {"partition.balance_cv", "ratio", true},
      {"skyline.local_s", "s", true},
      {"skyline.merge_s", "s", true},
      {"skyline.work_units", "count", true},
      {"skyline.ns_per_test", "ns", true},
      {"skyline.local_optimality", "ratio", true},
      {"mr.map_s", "s", true},
      {"mr.shuffle_s", "s", true},
      {"mr.reduce_other_s", "s", true},
      {"mr.shuffle_records", "count", true},
      {"mr.shuffle_mb", "MB", true},
      {"mr.spill_mb", "MB", true},
      {"mr.task_retries", "count", true},
      {"service.apply_ms", "ms", true},
      {"service.query_ms.skyline", "ms", true},
      {"service.query_ms.topk", "ms", true},
      {"service.query_ms.subspace", "ms", true},
      {"service.cache_hit_ratio", "ratio", true},
      {"service.fit_reuse_ratio", "ratio", true},
      {"service.pipeline_runs", "count", true},
      {"server.read_overhead_ms", "ms", true},
      {"server.write_overhead_ms", "ms", true},
      {"server.read_response_kb", "KB", true},
      {"server.delta_lag_ms", "ms", true},
      {"server.failed", "count", true},
      {"tail.read_p99_ms", "ms", true},
      {"tail.write_p99_ms", "ms", true},
      {"trace.overhead_frac", "ratio", true},
      {"trace.unattributed_frac", "ratio", true},
  };
  return catalogue;
}

namespace {

std::string number(double v) {
  if (!std::isfinite(v)) throw std::logic_error("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void require_known(const RunResult& result) {
  std::set<std::string> known;
  for (const auto& spec : metric_catalogue()) known.insert(spec.name);
  for (const auto& [name, value] : result.values) {
    if (!known.contains(name)) throw std::logic_error("unknown metric: " + name);
  }
}

double value_of(const RunResult& result, const MetricSpec& spec) {
  const auto it = result.values.find(spec.name);
  if (it != result.values.end()) return it->second;
  if (!spec.per_layer) {
    throw std::logic_error(std::string("end-to-end metric not measured: ") + spec.name);
  }
  return 0.0;
}

}  // namespace

std::string result_json(const RunResult& result, bool traced) {
  require_known(result);
  std::ostringstream os;
  os << "{\"correct\": " << (result.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& spec : metric_catalogue()) {
    if (spec.per_layer != traced) continue;
    if (!first) os << ", ";
    first = false;
    os << '"' << spec.name << "\": {\"value\": " << number(value_of(result, spec))
       << ", \"unit\": \"" << spec.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

std::string result_table(const RunResult& result, bool traced) {
  std::ostringstream os;
  for (const auto& spec : metric_catalogue()) {
    if (spec.per_layer != traced) continue;
    const auto it = result.values.find(spec.name);
    os << "  " << std::left << std::setw(28) << spec.name << std::right << std::setw(16);
    if (it == result.values.end()) {
      os << "-";
    } else {
      os << std::setprecision(6) << it->second;
    }
    os << "  " << spec.unit << "\n";
  }
  return os.str();
}

void PhaseValues::report_means(RunResult& result) const {
  for (const auto& [name, values] : values_) result.set(name, mean(values));
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of an empty sample");
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2.0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of an empty sample");
  if (!(p > 0.0 && p <= 100.0)) throw std::invalid_argument("percentile outside (0, 100]");
  std::sort(values.begin(), values.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) throw std::invalid_argument("mean of an empty sample");
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the kernel reports kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

void reset_peak_rss() {
  // Heap pages that earlier datasets' checks freed would otherwise stay
  // resident and set the baseline by allocator luck.
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) throw std::runtime_error("cannot reset VmHWM through /proc/self/clear_refs");
}

std::string filesystem_name(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: {
      std::ostringstream os;
      os << "0x" << std::hex << static_cast<unsigned long>(fs.f_type);
      return os.str();
    }
  }
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
  }
  if (cpus.empty()) throw std::runtime_error("no CPU in this process's affinity mask");
  return cpus;
}

bool pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

}  // namespace perfbench
