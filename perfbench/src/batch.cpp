// The two batch workloads: fig5b-d10 (resident) and ooc-indep-d4 (streamed
// from a `.mrb` block store). They share the run structure below and differ
// in how the program gets its data and what one timed operation opens.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>

#include "host_probe.hpp"
#include "reference.hpp"
#include "spans.hpp"
#include "workdir.hpp"
#include "workloads.hpp"
#include "src/common/trace.hpp"
#include "src/core/mr_skyline.hpp"
#include "src/core/optimality.hpp"
#include "src/dataset/block_store.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/io.hpp"
#include "src/dataset/normalize.hpp"
#include "src/dataset/qws.hpp"
#include "src/dataset/source.hpp"

namespace perfbench {

namespace {

namespace common = mrsky::common;
namespace core = mrsky::core;
namespace data = mrsky::data;
namespace mr = mrsky::mr;

constexpr double kMiB = 1024.0 * 1024.0;

/// Forwards every call to the wrapped source and sums the bytes, calls and
/// time of every read_block, whoever makes it — the pipeline's sampling,
/// its partition analysis and its map tasks alike. Spans it records make
/// block reads their own layer in the trace.
class CountingSource final : public data::DatasetSource {
 public:
  CountingSource(const data::DatasetSource& inner, common::TraceRecorder* trace)
      : inner_(inner), trace_(trace) {}

  [[nodiscard]] std::size_t dim() const override { return inner_.dim(); }
  [[nodiscard]] std::size_t size() const override { return inner_.size(); }
  [[nodiscard]] std::size_t block_count() const override { return inner_.block_count(); }
  [[nodiscard]] data::BlockStats block_stats(std::size_t b) const override {
    return inner_.block_stats(b);
  }
  void read_block(std::size_t b, data::PointSet& out) const override {
    common::ScopedSpan span(trace_, "read-block", "dataset");
    const auto t0 = Clock::now();
    inner_.read_block(b, out);
    ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
    blocks_ += 1;
    bytes_ += inner_.block_stats(b).bytes;
  }
  void release_block(std::size_t b) const override { inner_.release_block(b); }
  [[nodiscard]] std::string describe() const override { return inner_.describe(); }

  [[nodiscard]] std::uint64_t blocks() const { return blocks_; }
  [[nodiscard]] std::uint64_t bytes() const { return bytes_; }
  [[nodiscard]] double seconds() const { return static_cast<double>(ns_) * 1e-9; }

 private:
  const data::DatasetSource& inner_;
  common::TraceRecorder* trace_;
  mutable std::atomic<std::uint64_t> blocks_{0};
  mutable std::atomic<std::uint64_t> bytes_{0};
  mutable std::atomic<std::int64_t> ns_{0};
};

/// What the CountingSource saw during one job.
struct SeamCounts {
  std::uint64_t blocks = 0;
  std::uint64_t bytes = 0;
  double seconds = 0.0;
};

struct JobRun {
  core::MRSkylineResult result;
  std::optional<SeamCounts> seam;  ///< traced streamed jobs only
};

/// One workload's program-side hooks.
struct BatchWorkload {
  core::MRSkylineConfig config;
  /// The dataset-layer metric that times `prepare`.
  const char* prepare_metric = "dataset.ingest_s";
  /// Datasets per run, each drawn from its own seed, set up once and
  /// measured in turn.
  std::size_t datasets = 1;
  /// Times `prepare` runs per dataset, the last of them in set-up: each is
  /// one write sample.
  std::size_t writes = 1;
  /// Benchmark side, untimed: makes the dataset's inputs from `seed`.
  std::function<void(std::uint64_t seed)> generate;
  /// Loads or converts the inputs so the program can run on them — a batch
  /// workload's write.
  std::function<void()> prepare;
  /// Runs one operation: opens the prepared data and runs one job. With a
  /// recorder, records the benchmark's spans and, for a streamed source,
  /// counts block reads through a CountingSource.
  std::function<JobRun(common::TraceRecorder*)> run;
  /// The dataset the oracle checks against (called after the timed phase).
  std::function<data::PointSet()> oracle_input;
  /// Drops benchmark-side memory before the timed phase (optional).
  std::function<void()> release_inputs;
  /// Per-layer metrics this workload's code paths must produce: a traced
  /// run fails its attribution check when one of them reads 0.
  std::vector<const char*> exercised;
};

std::vector<const mr::JobMetrics*> all_jobs(const core::MRSkylineResult& r) {
  std::vector<const mr::JobMetrics*> jobs{&r.partition_job};
  for (const auto& round : r.merge_rounds) jobs.push_back(&round);
  return jobs;
}

std::uint64_t task_retries(const core::MRSkylineResult& r) {
  std::uint64_t retries = 0;
  for (const mr::JobMetrics* job : all_jobs(r)) {
    for (const auto& t : job->map_tasks) retries += t.attempts - 1;
    for (const auto& t : job->reduce_tasks) retries += t.attempts - 1;
  }
  return retries;
}

/// Per-layer metrics read from one job's result (exact at a fixed seed).
void record_counters(const core::MRSkylineResult& r, PhaseValues& out) {
  const mr::JobMetrics& job1 = r.partition_job;
  const double attempted_bytes = static_cast<double>(job1.bytes_read + job1.bytes_pruned);
  out.add("core.pruned_frac",
          attempted_bytes > 0 ? static_cast<double>(job1.bytes_pruned) / attempted_bytes : 0.0);
  out.add("core.merge_rounds", static_cast<double>(r.merge_rounds.size()));
  out.add("partition.balance_cv", r.partition_report.balance_cv);
  std::uint64_t work = 0, records = 0, bytes = 0, spilled = 0;
  for (const mr::JobMetrics* job : all_jobs(r)) {
    work += job->total_work_units();
    records += job->shuffle_records;
    bytes += job->shuffle_bytes;
    spilled += job->shuffle_spilled_bytes;
  }
  out.add("skyline.work_units", static_cast<double>(work));
  out.add("skyline.local_optimality",
          core::local_skyline_optimality(r.local_skylines, r.skyline).mean_optimality);
  out.add("mr.shuffle_records", static_cast<double>(records));
  out.add("mr.shuffle_mb", static_cast<double>(bytes) / kMiB);
  out.add("mr.spill_mb", static_cast<double>(spilled) / kMiB);
  out.add("mr.task_retries", static_cast<double>(task_retries(r)));
}

RunResult run_batch(const Options& o, BatchWorkload& w, WorkDir& dir) {
  RunResult result;
  std::cout << "work files: " << dir.root() << " on " << filesystem_name(dir.root()) << "\n";
  std::vector<double> setup_s, prepare_s;
  PhaseValues per_dataset;
  common::TraceRecorder recorder;
  HostProbe probe;
  const double seconds = o.seconds / static_cast<double>(w.datasets);

  for (std::size_t d = 0; d < w.datasets; ++d) {
    const std::uint64_t seed = dataset_seed(o.seed, d);
    w.generate(seed);

    // Writes before set-up, each between two probes; the mean of their
    // factors is the host speed of what ran between them.
    for (std::size_t k = 1; k < w.writes; ++k) {
      const double speed_before = probe.factor();
      const auto t0 = Clock::now();
      w.prepare();
      const double wall = seconds_between(t0, Clock::now());
      prepare_s.push_back(wall * (speed_before + probe.factor()) / 2.0);
    }

    // Set-up: the program's own preparation plus the first job, which fills
    // caches and finishes lazy set-up.
    const double setup_speed_before = probe.factor();
    const auto t0 = Clock::now();
    w.prepare();
    const double prepare_wall = seconds_between(t0, Clock::now());
    const core::MRSkylineResult warm = w.run(nullptr).result;
    const double setup_wall = seconds_between(t0, Clock::now());
    const double setup_speed = (setup_speed_before + probe.factor()) / 2.0;
    prepare_s.push_back(prepare_wall * setup_speed);
    setup_s.push_back(setup_wall * setup_speed);
    std::cout << "dataset " << d + 1 << " (seed " << seed << ") set-up: " << setup_wall
              << " s wall, " << setup_s.back() << " s at reference speed (prepare "
              << prepare_s.back() << " s, skyline " << warm.skyline.size() << " points)\n";
    if (w.release_inputs) w.release_inputs();

    // Timed phase. Every job runs between two host probes and is reported
    // at reference speed. A traced run alternates untraced and traced jobs,
    // so the tracing overhead is measured on the same data.
    reset_peak_rss();
    std::vector<double> walls, raw_walls, traced_walls;
    std::vector<std::uint64_t> digests;
    std::optional<core::MRSkylineResult> traced_result;
    double sim = 0.0;
    const auto start = Clock::now();
    double speed_before = probe.factor();
    for (std::size_t i = 0;; ++i) {
      const bool trace_this = o.traced && i % 2 == 1;
      const auto job_start = Clock::now();
      JobRun job = w.run(trace_this ? &recorder : nullptr);
      const double wall = seconds_between(job_start, Clock::now());
      const double speed_after = probe.factor();
      (trace_this ? traced_walls : walls).push_back(wall * (speed_before + speed_after) / 2.0);
      speed_before = speed_after;
      if (!trace_this) raw_walls.push_back(wall);
      digests.push_back(canonical_digest(job.result.skyline));
      if (i == 0) sim = job.result.simulate(mr::ClusterModel{}).total_seconds();
      if (trace_this && job.seam) {
        per_dataset.add("dataset.seam_read_mb", static_cast<double>(job.seam->bytes) / kMiB);
        per_dataset.add("dataset.seam_blocks_read", static_cast<double>(job.seam->blocks));
        per_dataset.add("dataset.read_block_s", job.seam->seconds);
      }
      if (trace_this && !traced_result) traced_result = std::move(job.result);
      const bool enough = !o.traced || traced_walls.size() >= 2;
      if (enough && seconds_between(start, Clock::now()) >= seconds) break;
    }
    const double loop_s = seconds_between(start, Clock::now());
    per_dataset.add("peak_rss_mb", peak_rss_mb());

    // Correctness, untimed and after the peak was read.
    const std::uint64_t expected = canonical_digest(reference_skyline(w.oracle_input()));
    for (const std::uint64_t digest : digests) result.check(digest == expected);
    std::cout << "dataset " << d + 1 << ": " << digests.size() << " jobs in " << loop_s
              << " s, median " << median(raw_walls) << " s wall, " << median(walls)
              << " s at reference speed; "
              << std::count_if(digests.begin(), digests.end(),
                               [&](std::uint64_t digest) { return digest != expected; })
              << " skylines differ from the reference\n";

    if (!o.traced) {
      per_dataset.add("job_p50_s", median(walls));
      per_dataset.add("sim_job_s", sim);
      // A batch user's read is the skyline job; their write is loading the
      // data. Per request counts the jobs' walls only, not the digests and
      // the simulation the benchmark computes between them.
      per_dataset.add("read_p50_ms", median(walls) * 1e3);
      per_dataset.add("serve_ms_per_req",
                      std::accumulate(walls.begin(), walls.end(), 0.0) * 1e3 /
                          static_cast<double>(walls.size()));
      continue;
    }
    record_counters(*traced_result, per_dataset);
    result.failed += task_retries(*traced_result);  // a retried task is a failed attempt
    per_dataset.add("trace.overhead_frac", median(traced_walls) / median(walls) - 1.0);
  }

  per_dataset.report_means(result);
  std::cout << "host probe: " << probe.factors().size() << " runs, median speed factor "
            << median(probe.factors()) << "\n";
  if (!o.traced) {
    result.set("setup_s", median(setup_s));
    result.set("write_p50_ms", median(prepare_s) * 1e3);
    return result;
  }
  result.set(w.prepare_metric, median(prepare_s));
  const SpanTree tree(recorder.spans());
  result.set("trace.unattributed_frac",
             record_pipeline_layers(tree, tree.named("bench-job"), result));
  check_attribution(tree, w.exercised, result);
  const std::string trace_path = dir.trace_path(o.seed);
  recorder.write_chrome_json(trace_path);
  std::cout << "trace: " << trace_path << " (" << tree.spans().size() << " spans)\n";
  return result;
}

}  // namespace

RunResult run_fig5b_d10(const Options& o) {
  const std::size_t n = o.smoke ? 3000 : 100000;
  const std::size_t dim = 10;
  WorkDir dir(o.work_dir, "fig5b-d10");
  const std::string csv = dir.file("input.csv");
  std::unique_ptr<data::PointSetSource> source;

  BatchWorkload w;
  w.datasets = 10;
  w.writes = 3;
  w.generate = [&](std::uint64_t seed) {
    source.reset();
    data::QwsLikeGenerator gen(dim, seed);
    data::write_csv_file(csv, data::normalize_min_max(gen.generate_oriented(n)));
  };
  w.prepare = [&] {
    source.reset();
    source = std::make_unique<data::PointSetSource>(
        data::normalize_min_max(data::read_csv_file(csv)));
  };
  w.run = [&](common::TraceRecorder* trace) {
    core::MRSkylineConfig config = w.config;
    config.run_options.trace = trace;
    common::ScopedSpan span(trace, "bench-job", "bench");
    return JobRun{core::run_mr_skyline(*source, config), std::nullopt};
  };
  w.oracle_input = [&] { return *source->resident(); };
  w.exercised = {"dataset.ingest_s", "core.self_s", "core.merge_rounds", "partition.fit_s",
                 "partition.balance_cv", "skyline.local_s", "skyline.merge_s",
                 "skyline.work_units", "skyline.ns_per_test", "skyline.local_optimality",
                 "mr.map_s", "mr.shuffle_s", "mr.reduce_other_s", "mr.shuffle_records",
                 "mr.shuffle_mb"};
  return run_batch(o, w, dir);
}

RunResult run_ooc_indep_d4(const Options& o) {
  const std::size_t n = o.smoke ? 30000 : 2000000;
  const std::size_t dim = 4;
  WorkDir dir(o.work_dir, "ooc-indep-d4");
  std::uint64_t seed = 0;
  std::optional<data::PointSet> rows;
  const auto generate = [&] {
    return data::generate(data::Distribution::kIndependent, n, dim, seed);
  };

  BatchWorkload w;
  w.prepare_metric = "dataset.convert_s";
  w.datasets = 3;
  // Smoke scale shuffles about 1 MiB, so a smaller budget keeps the spill
  // path, and its checks, in the smoke runs.
  w.config.run_options.shuffle_spill_bytes = o.smoke ? 256u << 10 : 8u << 20;
  w.config.run_options.spill_dir = dir.file("spill");
  std::filesystem::create_directories(w.config.run_options.spill_dir);

  // Every store is a fresh file and the previous one is deleted first, so
  // no set-up pays for another's writeback; the kept store is flushed before
  // the timed phase, so background writeback stays out of that too.
  int generation = 0;
  std::string store;
  w.generate = [&](std::uint64_t dataset_seed) {
    seed = dataset_seed;
    rows = generate();
  };
  w.prepare = [&] {
    if (!store.empty()) std::filesystem::remove(store);
    store = dir.file("input-" + std::to_string(generation++) + ".mrb");
    data::write_block_store(store, rows->select(data::zorder_permutation(*rows)));
  };
  w.release_inputs = [&] {
    rows.reset();
    const int fd = ::open(store.c_str(), O_RDONLY);
    if (fd >= 0) {
      ::fdatasync(fd);
      ::close(fd);
    }
  };
  w.run = [&](common::TraceRecorder* trace) {
    core::MRSkylineConfig config = w.config;
    config.run_options.trace = trace;
    common::ScopedSpan span(trace, "bench-job", "bench");
    std::optional<data::BlockStoreSource> source;
    {
      common::ScopedSpan open(trace, "open-source", "bench");
      source.emplace(store);
    }
    if (trace == nullptr) return JobRun{core::run_mr_skyline(*source, config), std::nullopt};
    const CountingSource counted(*source, trace);
    JobRun job{core::run_mr_skyline(counted, config), std::nullopt};
    job.seam = SeamCounts{counted.blocks(), counted.bytes(), counted.seconds()};
    return job;
  };
  w.oracle_input = generate;
  w.exercised = {"dataset.convert_s", "dataset.seam_read_mb", "dataset.seam_blocks_read",
                 "dataset.read_block_s", "core.pruned_frac", "core.block_prune_s", "core.self_s",
                 "core.merge_rounds", "partition.fit_s", "skyline.local_s", "skyline.work_units",
                 "skyline.ns_per_test", "mr.map_s", "mr.shuffle_s", "mr.reduce_other_s",
                 "mr.shuffle_records", "mr.shuffle_mb", "mr.spill_mb"};
  return run_batch(o, w, dir);
}

}  // namespace perfbench
