// Ablation — cost of span-level tracing on the Fig. 5 workload.
//
// Runs the full two-job pipeline with RunOptions::trace unset (the shipping
// default: every instrumentation site is one null-pointer test) and with a
// live TraceRecorder, and reports the minimum wall clock of --repeats runs
// for both. The runs alternate untraced, traced, untraced, ... so a burst of
// host load lands on both sides instead of on whichever side ran through it;
// the minimum is the run least disturbed. This is the overhead guard for
// DESIGN.md decision 10: the enabled path pays one mutex round-trip per
// task/attempt/shuffle-bucket span — not per record — so the ratio must
// stay close to 1 even on small inputs where span count is large relative
// to work.
//
// --check turns the run into a CI gate: it fails if tracing-on exceeds
// --max_ratio (default 2.0, deliberately generous — small smoke workloads on
// noisy shared runners jitter far more than production-sized ones), if the
// recorder captured no spans, or if tracing changed the skyline.
#include <algorithm>
#include <iostream>

#include "bench/support.hpp"
#include "src/common/cli.hpp"
#include "src/common/table.hpp"
#include "src/common/timer.hpp"
#include "src/common/trace.hpp"
#include "src/dataset/point_set.hpp"

using namespace mrsky;

namespace {

/// Wall clock of one pipeline run; the result lands in `out`.
double timed_run(const data::PointSet& ps, const core::MRSkylineConfig& config,
                 core::MRSkylineResult& out) {
  common::Timer timer;
  out = core::run_mr_skyline(ps, config);
  return timer.elapsed_seconds();
}

}  // namespace

int main(int argc, char** argv) {
  const common::CliArgs args(argc, argv);
  const auto n = static_cast<std::size_t>(args.get_int("cardinality", 60000));
  const auto dim = static_cast<std::size_t>(args.get_int("dim", 8));
  const auto servers = static_cast<std::size_t>(args.get_int("servers", 8));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", bench::kDefaultSeed));
  const int repeats = std::max(1, static_cast<int>(args.get_int("repeats", 3)));
  const bool threads = args.get_bool("threads", false);
  const bool check = args.get_bool("check", false);
  const double max_ratio = args.get_double("max_ratio", 2.0);

  std::cout << "Tracing overhead ablation — Fig. 5 workload, tracing off vs on\n"
            << "N=" << n << ", d=" << dim << ", cluster=" << servers << " servers, engine="
            << (threads ? "threads" : "sequential") << ", min of " << repeats
            << " interleaved runs per side\n\n";

  const auto ps = bench::qws_workload(n, dim, seed);
  core::MRSkylineConfig config;
  config.scheme = part::Scheme::kAngular;
  config.servers = servers;
  config.merge_fan_in = 4;
  if (threads) config.run_options.mode = mr::ExecutionMode::kThreads;

  common::TraceRecorder recorder;
  core::MRSkylineConfig traced = config;
  traced.run_options.trace = &recorder;
  core::MRSkylineResult off_result;
  core::MRSkylineResult on_result;
  double off_seconds = 0.0;
  double on_seconds = 0.0;
  for (int r = 0; r < repeats; ++r) {
    const double off = timed_run(ps, config, off_result);
    const double on = timed_run(ps, traced, on_result);
    off_seconds = r == 0 ? off : std::min(off_seconds, off);
    on_seconds = r == 0 ? on : std::min(on_seconds, on);
  }
  // `repeats` pipeline runs accumulate into one recorder; per-run span count
  // is what a single --trace-out file would hold.
  const std::size_t spans_per_run = recorder.spans().size() / static_cast<std::size_t>(repeats);

  const double ratio = off_seconds > 0.0 ? on_seconds / off_seconds : 1.0;
  common::Table table({"tracing", "wall_s", "ratio", "spans", "skyline"});
  table.add_row({"off", common::Table::fmt(off_seconds, 4), "1.00x",
                 "0", common::Table::fmt(off_result.skyline.size())});
  table.add_row({"on", common::Table::fmt(on_seconds, 4),
                 common::Table::fmt(ratio, 2) + "x", common::Table::fmt(spans_per_run),
                 common::Table::fmt(on_result.skyline.size())});

  if (args.get_bool("csv", false)) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout, "tracing overhead, N=" + std::to_string(n));
    std::cout << "\nDisabled tracing is the default and is free by construction (null\n"
                 "recorder pointer); this table bounds what switching it on costs.\n";
  }

  if (check) {
    if (sorted_ids(on_result.skyline) != sorted_ids(off_result.skyline)) {
      std::cerr << "ERROR: tracing changed the skyline\n";
      return 1;
    }
    if (spans_per_run == 0) {
      std::cerr << "ERROR: traced run recorded no spans\n";
      return 1;
    }
    if (ratio > max_ratio) {
      std::cerr << "ERROR: tracing-on ratio " << ratio << " exceeds limit " << max_ratio << "\n";
      return 1;
    }
    std::cout << "\ncheck passed: ratio " << common::Table::fmt(ratio, 2) << "x <= "
              << common::Table::fmt(max_ratio, 2) << "x, " << spans_per_run << " spans\n";
  }
  return 0;
}
