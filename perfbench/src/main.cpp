// perfbench — the repository benchmark.
//
//   perfbench --workload <fig5b-d10|ooc-indep-d4|serve-churn> --seed <n>
//             --seconds <s> --trace <0|1> [--scale full|smoke] [--work-dir <dir>]
//   perfbench --list-metrics
//
// Prints a report, then as its last stdout line one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{"value":..,"unit":..}}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). Exits non-zero, printing no result, when a run cannot finish.
#include <malloc.h>
#include <unistd.h>

#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) throw std::invalid_argument("unexpected argument: " + arg);
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    flags[arg.substr(2)] = argv[++i];
  }
  return flags;
}

std::string flag(const std::map<std::string, std::string>& flags, const std::string& name,
                 const std::string& fallback) {
  const auto it = flags.find(name);
  return it == flags.end() ? fallback : it->second;
}

using Runner = perfbench::RunResult (*)(const perfbench::Options&);

Runner workload_runner(const std::string& workload) {
  if (workload == "fig5b-d10") return perfbench::run_fig5b_d10;
  if (workload == "ooc-indep-d4") return perfbench::run_ooc_indep_d4;
  if (workload == "serve-churn") return perfbench::run_serve_churn;
  throw std::invalid_argument("--workload must be fig5b-d10, ooc-indep-d4 or serve-churn");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  // One malloc arena for every thread. With the measured threads on one CPU
  // (below), more arenas buy no concurrency; one arena makes heap reuse, and
  // so serve-churn's peak RSS, independent of which thread frees a snapshot.
  ::mallopt(M_ARENA_MAX, 1);
  try {
    if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
      for (const auto& spec : metric_catalogue()) {
        std::cout << spec.name << ' ' << spec.unit << ' '
                  << (spec.per_layer ? "per_layer" : "end_to_end") << "\n";
      }
      return 0;
    }
    const auto flags = parse_flags(argc, argv);
    for (const auto& [name, value] : flags) {
      if (name != "workload" && name != "seed" && name != "seconds" && name != "trace" &&
          name != "scale" && name != "work-dir") {
        throw std::invalid_argument("unknown flag --" + name);
      }
    }
    Options options;
    options.workload = flag(flags, "workload", "");
    const auto run = workload_runner(options.workload);
    options.seed = std::stoull(flag(flags, "seed", "1"));
    options.seconds = std::stod(flag(flags, "seconds", "10"));
    const std::string trace = flag(flags, "trace", "0");
    if (trace != "0" && trace != "1") throw std::invalid_argument("--trace must be 0 or 1");
    options.traced = trace == "1";
    const std::string scale = flag(flags, "scale", "full");
    if (scale != "full" && scale != "smoke") {
      throw std::invalid_argument("--scale must be full or smoke");
    }
    options.smoke = scale == "smoke";
    options.work_dir = flag(flags, "work-dir", ".bench_work");
    if (!(options.seconds > 0.0)) throw std::invalid_argument("--seconds must be positive");

    // One CPU carries everything measured — the timed calls, the threads the
    // library starts, and the host probe, which therefore reads the speed of
    // the core the operations ran on — and no wake-up crosses CPUs. Where
    // the kernel refuses, the run goes on unpinned and says so.
    const std::vector<int> cpus = allowed_cpus();
    const int cpu = cpus.back();
    options.side_cpu = cpus.size() > 1 ? cpus[cpus.size() - 2] : cpu;
    const bool pinned = pin_to_cpu(cpu);

    const char* sha = std::getenv("PERFBENCH_GIT_SHA");
    std::cout << "perfbench: workload=" << options.workload << " seed=" << options.seed
              << " seconds=" << options.seconds << " trace=" << trace << " scale=" << scale
              << "\nbuild: type=" << PERFBENCH_BUILD_TYPE << " MRSKY_NATIVE=" << PERFBENCH_NATIVE
              << " nproc=" << ::sysconf(_SC_NPROCESSORS_ONLN) << " cpu="
              << (pinned ? std::to_string(cpu) : "unpinned") << " side_cpu=" << options.side_cpu
              << " git=" << (sha != nullptr && *sha != '\0' ? sha : "unknown") << "\n";

    const RunResult result = run(options);
    const std::string json = result_json(result, options.traced);
    std::cout << (options.traced ? "per-layer metrics:\n" : "end-to-end metrics:\n")
              << result_table(result, options.traced) << json << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
