// Out-of-core block-store pipeline — RSS-bounded .mrb streaming vs resident.
//
// ISSUE 10 perf gate: a fig5-style run over a dataset several times larger
// than the RSS cap must complete from a `.mrb` block store with the process
// high-water mark under the cap, a skyline bitwise-identical to the resident
// pipeline's, and a meaningful fraction of the file's payload pruned before
// it is ever read (footer min-corners vs. the fit-sample skyline).
//
// Three modes, run as SEPARATE PROCESSES so the measured high-water mark is
// honest (VmHWM is per-process and never decreases — a generation pass in
// the same process would dominate it):
//
//   --mode generate  materialise the workload, z-order it, write the .mrb
//                    (unmeasured helper process)
//   --mode memory    materialise the .mrb and run the resident pipeline;
//                    lands the baseline skyline as a small .mrb file for
//                    the block run to diff against
//   --mode block     stream the .mrb through run_mr_skyline(DatasetSource)
//                    with a shuffle spill budget. --check gates:
//                    file_bytes >= 4x --rss-cap-mb, VmHWM <= --rss-cap-mb,
//                    bytes_pruned >= --min-pruned-fraction of the payload,
//                    and bitwise identity against --baseline
//   --mode all       all three in sequence in one process (the ctest smoke
//                    path); the RSS gate is skipped, identity + pruning hold
//
// Examples (an indented line continues the command above it):
//   bench_out_of_core --mode generate --cardinality 4000000 --dim 4
//       --distribution anticorrelated --file /tmp/ooc.mrb
//   bench_out_of_core --mode memory --file /tmp/ooc.mrb --baseline /tmp/sky.mrb
//   bench_out_of_core --mode block --file /tmp/ooc.mrb --baseline /tmp/sky.mrb
//       --rss-cap-mb 36 --check --json experiment_results/out_of_core.json
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/support.hpp"
#include "src/common/cli.hpp"
#include "src/common/error.hpp"
#include "src/common/table.hpp"
#include "src/core/mr_skyline.hpp"
#include "src/dataset/block_store.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/source.hpp"

using namespace mrsky;

namespace {

/// Process high-water resident set, in kilobytes, from /proc/self/status.
/// Returns 0 where the file or the field is unavailable (non-Linux).
std::size_t vm_hwm_kb() {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::size_t>(std::stoull(line.substr(6)));
    }
  }
  return 0;
}

/// Ascending-id copy. The streamed and resident runs fit their partitioners
/// differently (bounded block sample vs. everything), which steers the merge
/// cascade's emission ORDER but never its membership — so identity is
/// checked over the canonical order.
data::PointSet canonical_by_id(const data::PointSet& ps) {
  std::vector<std::size_t> order(ps.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ps.id(a) < ps.id(b); });
  return ps.select(order);
}

bool same_bits(const data::PointSet& a, const data::PointSet& b) {
  if (a.size() != b.size() || a.dim() != b.dim()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.id(i) != b.id(i)) return false;
    const auto pa = a.point(i);
    const auto pb = b.point(i);
    for (std::size_t d = 0; d < pa.size(); ++d) {
      if (std::bit_cast<std::uint64_t>(pa[d]) != std::bit_cast<std::uint64_t>(pb[d])) {
        return false;
      }
    }
  }
  return true;
}

struct Options {
  std::size_t cardinality = 200000;
  std::size_t dim = 4;
  data::Distribution distribution = data::Distribution::kAnticorrelated;
  std::uint64_t seed = bench::kDefaultSeed;
  std::size_t block_rows = 8192;
  std::string order = "zorder";
  std::string file;
  std::string baseline;
  std::string json_out;
  std::uint64_t spill_bytes = 8ull << 20;
  std::size_t rss_cap_mb = 0;
  double min_pruned_fraction = 0.2;
  bool check = false;
  core::MRSkylineConfig config;  // fig5-style: angular, the paper's defaults
};

core::MRSkylineConfig fig5_config(const common::CliArgs& args) {
  core::MRSkylineConfig config;
  config.scheme = part::parse_scheme(args.get_string("scheme", "angular"));
  config.servers = static_cast<std::size_t>(args.get_int("servers", 8));
  config.num_partitions = static_cast<std::size_t>(args.get_int("partitions", 0));
  config.local_algorithm = skyline::parse_algorithm(args.get_string("algorithm", "sfs"));
  // RSS under the cap needs bounded in-flight state, and both are per-task:
  // a map task buffers its whole shard before it can spill, a reduce task
  // materialises its whole bucket. Many small map tasks + few worker lanes
  // keep (concurrent tasks x per-task footprint) flat; the defaults here are
  // sized for the perf-scale block run and overridable per mode.
  config.num_map_tasks = static_cast<std::size_t>(args.get_int("map-tasks", 0));
  config.run_options.num_threads = static_cast<std::size_t>(args.get_int("threads", 0));
  config.validate_or_throw();
  return config;
}

int do_generate(const Options& opt) {
  const auto t0 = std::chrono::steady_clock::now();
  const data::PointSet ps = data::generate(opt.distribution, opt.cardinality, opt.dim, opt.seed);
  if (opt.order == "zorder") {
    data::write_block_store(opt.file, ps, data::zorder_permutation(ps), opt.block_rows);
  } else {
    data::write_block_store(opt.file, ps, opt.block_rows);
  }
  const auto t1 = std::chrono::steady_clock::now();
  const data::BlockStore store(opt.file);
  std::cout << "generate: " << data::to_string(opt.distribution) << " N=" << opt.cardinality
            << " d=" << opt.dim << " -> " << opt.file << " (" << store.block_count()
            << " blocks of <= " << store.block_rows() << " rows, " << store.file_bytes()
            << " bytes, order=" << opt.order << ") in "
            << std::chrono::duration<double>(t1 - t0).count() << " s\n";
  return 0;
}

struct RunResult {
  double wall_seconds = 0.0;
  std::size_t skyline = 0;
  std::size_t hwm_kb = 0;
  mr::JobMetrics job1;
};

RunResult do_memory(const Options& opt) {
  const data::BlockStore store(opt.file);
  data::PointSet ps = store.materialize();
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = core::run_mr_skyline(ps, opt.config);
  const auto t1 = std::chrono::steady_clock::now();
  if (!opt.baseline.empty()) {
    data::write_block_store(opt.baseline, canonical_by_id(result.skyline));
  }

  RunResult r;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.skyline = result.skyline.size();
  r.hwm_kb = vm_hwm_kb();
  r.job1 = result.partition_job;
  std::cout << "memory:  skyline " << r.skyline << " points in " << r.wall_seconds
            << " s, VmHWM " << r.hwm_kb << " kB"
            << (opt.baseline.empty() ? "" : ", baseline -> " + opt.baseline) << "\n";
  return r;
}

/// Runs the streaming pipeline and applies the --check gates. `gate_rss` is
/// false in --mode all, where generation already polluted the process HWM.
int do_block(const Options& opt, bool gate_rss) {
  auto source = std::make_unique<data::BlockStoreSource>(opt.file);
  const std::uint64_t file_bytes = source->store().file_bytes();
  auto config = opt.config;
  config.run_options.shuffle_spill_bytes = opt.spill_bytes;

  const auto t0 = std::chrono::steady_clock::now();
  const auto result = core::run_mr_skyline(*source, config);
  const auto t1 = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.skyline = result.skyline.size();
  r.hwm_kb = vm_hwm_kb();
  r.job1 = result.partition_job;

  const std::uint64_t payload = r.job1.bytes_read + r.job1.bytes_pruned;
  const double pruned_fraction =
      payload > 0 ? static_cast<double>(r.job1.bytes_pruned) / static_cast<double>(payload) : 0.0;

  bool bitwise = true;
  if (!opt.baseline.empty()) {
    const data::PointSet expect = data::BlockStore(opt.baseline).materialize();
    bitwise = same_bits(expect, canonical_by_id(result.skyline));
    MRSKY_REQUIRE(bitwise, "block-store skyline differs from the resident baseline — "
                           "the out-of-core path is NOT exact");
  }

  common::Table table({"metric", "value"});
  table.add_row({"file_bytes", common::Table::fmt(static_cast<std::size_t>(file_bytes))});
  table.add_row({"wall_s", common::Table::fmt(r.wall_seconds, 3)});
  table.add_row({"vm_hwm_kb", common::Table::fmt(r.hwm_kb)});
  table.add_row({"skyline", common::Table::fmt(r.skyline)});
  table.add_row({"blocks_pruned", common::Table::fmt(static_cast<std::size_t>(r.job1.blocks_pruned))});
  table.add_row({"bytes_read", common::Table::fmt(static_cast<std::size_t>(r.job1.bytes_read))});
  table.add_row({"bytes_pruned", common::Table::fmt(static_cast<std::size_t>(r.job1.bytes_pruned))});
  table.add_row({"pruned_fraction", common::Table::fmt(pruned_fraction, 3)});
  table.add_row({"spilled_bytes",
                 common::Table::fmt(static_cast<std::size_t>(r.job1.shuffle_spilled_bytes))});
  table.add_row({"spill_files", common::Table::fmt(static_cast<std::size_t>(r.job1.shuffle_spill_files))});
  table.print(std::cout, "block-store streaming run" +
                             std::string(opt.baseline.empty() ? "" : " (bitwise-identical)"));

  if (!opt.json_out.empty()) {
    std::ofstream file(opt.json_out);
    MRSKY_REQUIRE(static_cast<bool>(file), "cannot open " + opt.json_out);
    file << "{\"workload\":{\"cardinality\":" << opt.cardinality << ",\"dim\":" << opt.dim
         << ",\"distribution\":\"" << data::to_string(opt.distribution)
         << "\",\"seed\":" << opt.seed << ",\"block_rows\":" << opt.block_rows
         << ",\"order\":\"" << opt.order << "\"},\"file_bytes\":" << file_bytes
         << ",\"wall_seconds\":" << r.wall_seconds << ",\"vm_hwm_kb\":" << r.hwm_kb
         << ",\"rss_cap_mb\":" << opt.rss_cap_mb << ",\"skyline\":" << r.skyline
         << ",\"blocks_pruned\":" << r.job1.blocks_pruned
         << ",\"bytes_read\":" << r.job1.bytes_read
         << ",\"bytes_pruned\":" << r.job1.bytes_pruned
         << ",\"pruned_fraction\":" << pruned_fraction
         << ",\"shuffle_spilled_bytes\":" << r.job1.shuffle_spilled_bytes
         << ",\"shuffle_spill_files\":" << r.job1.shuffle_spill_files
         << ",\"bitwise_identical\":" << (bitwise ? "true" : "false") << "}\n";
    std::cout << "json written to " << opt.json_out << "\n";
  }

  if (opt.check) {
    bool ok = true;
    if (pruned_fraction < opt.min_pruned_fraction) {
      std::cerr << "FAIL: pruned fraction " << pruned_fraction << " below required "
                << opt.min_pruned_fraction << "\n";
      ok = false;
    }
    if (gate_rss && opt.rss_cap_mb > 0) {
      const std::uint64_t cap_kb = static_cast<std::uint64_t>(opt.rss_cap_mb) * 1024;
      if (file_bytes < 4 * cap_kb * 1024) {
        std::cerr << "FAIL: file is " << file_bytes << " bytes, below 4x the " << opt.rss_cap_mb
                  << " MB RSS cap — the gate would not prove anything\n";
        ok = false;
      }
      if (r.hwm_kb > cap_kb) {
        std::cerr << "FAIL: VmHWM " << r.hwm_kb << " kB exceeds the " << opt.rss_cap_mb
                  << " MB cap\n";
        ok = false;
      }
    }
    if (!ok) return 1;
    std::cout << "CHECK OK: " << (gate_rss && opt.rss_cap_mb > 0
                                      ? "RSS bounded, pruning effective, skyline exact\n"
                                      : "pruning effective, skyline exact\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const std::string mode = args.get_string("mode", "all");

  Options opt;
  opt.cardinality = static_cast<std::size_t>(args.get_int("cardinality", 200000));
  opt.dim = static_cast<std::size_t>(args.get_int("dim", 4));
  opt.distribution =
      data::parse_distribution(args.get_string("distribution", "anticorrelated"));
  opt.seed = static_cast<std::uint64_t>(args.get_int("seed", bench::kDefaultSeed));
  opt.block_rows = static_cast<std::size_t>(args.get_int("block-rows", 8192));
  opt.order = args.get_string("order", "zorder");
  opt.file = args.get_string("file", "");
  opt.baseline = args.get_string("baseline", "");
  opt.json_out = args.get_string("json", "");
  opt.spill_bytes = static_cast<std::uint64_t>(args.get_int("spill-bytes", 8 << 20));
  opt.rss_cap_mb = static_cast<std::size_t>(args.get_int("rss-cap-mb", 0));
  opt.min_pruned_fraction = args.get_double("min-pruned-fraction", 0.2);
  opt.check = args.get_bool("check", false);
  opt.config = fig5_config(args);

  try {
    if (mode == "all") {
      // Single-process smoke: everything in a scratch directory, RSS gate off.
      const auto dir = std::filesystem::temp_directory_path() /
                       ("mrsky-ooc-" + std::to_string(::getpid()));
      std::filesystem::create_directories(dir);
      if (opt.file.empty()) opt.file = (dir / "data.mrb").string();
      if (opt.baseline.empty()) opt.baseline = (dir / "baseline.mrb").string();
      do_generate(opt);
      do_memory(opt);
      const int rc = do_block(opt, /*gate_rss=*/false);
      std::filesystem::remove_all(dir);
      return rc;
    }
    MRSKY_REQUIRE(!opt.file.empty(), "--file <data.mrb> is required for --mode " + mode);
    if (mode == "generate") return do_generate(opt);
    if (mode == "memory") {
      do_memory(opt);
      return 0;
    }
    if (mode == "block") return do_block(opt, /*gate_rss=*/true);
    MRSKY_FAIL("unknown --mode '" + mode + "' (generate|memory|block|all)");
  } catch (const std::exception& e) {
    std::cerr << "bench_out_of_core: " << e.what() << "\n";
    return 1;
  }
}
