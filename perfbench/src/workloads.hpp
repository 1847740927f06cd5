// The benchmark's workloads. Each builds its inputs from the seed, drives
// the library only through its public API, checks every answer, and fills a
// RunResult with the metrics of its mode.
#pragma once

#include <cstdint>
#include <string>

#include "measure.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  /// Full size is the measured benchmark; smoke shrinks every input so the
  /// tests can run each workload, and each of its checks, in a second.
  bool smoke = false;
  /// Work space for inputs, block stores and spill files (emptied after
  /// the run) and for traced runs' Chrome JSON (kept).
  std::string work_dir;
  /// The CPU serve-churn's subscriber thread runs on; the rest of the
  /// process, the library's threads included, runs on the one main pinned.
  int side_cpu = 0;
};

/// Resident batch at the paper's headline point: QWS-like N = 100,000,
/// d = 10, ingested from CSV, one run_mr_skyline job per operation.
[[nodiscard]] RunResult run_fig5b_d10(const Options& options);

/// Out-of-core batch: independent N = 2,000,000, d = 4, z-ordered into a
/// `.mrb` block store; each operation opens the store and runs one job with
/// an 8 MiB shuffle spill budget.
[[nodiscard]] RunResult run_ooc_indep_d4(const Options& options);

/// Online registry traffic: a closed loop of inserts, deletes and reads on
/// one connection to an in-process server, plus one subscriber connection.
[[nodiscard]] RunResult run_serve_churn(const Options& options);

}  // namespace perfbench
