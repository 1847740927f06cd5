// The row job: the engine's map → shuffle → reduce, for point rows.
//
// A record is (key, u32 id, dim doubles), the shape of every job in the
// skyline pipeline (core/mr_skyline.cpp, this header's one client). A row
// job keeps the records of one map task and one reduce bucket as one
// data::PointSet: flat row-major coordinates plus ids.
//
// * The map function appends each row it keeps to its bucket's PointSet.
// * A spilling map task writes each bucket as its raw coordinate and id
//   bytes, one write per bucket.
// * A reduce task assembles its bucket from every map task's span, in
//   map-task order, with one copy or one read per span, and hands the
//   reduce function the bucket as one PointSet.
//
// No record is allocated, encoded or decoded on its own.
//
// Routing is the identity: key k goes to reduce bucket k, so a bucket is one
// key group and needs no sort. Emitting a key >= num_reduce_tasks throws
// InvalidArgument from inside the map function, which the attempt loop
// treats like any record the map function throws on.
//
// The task machinery is job.hpp's: the attempt loop with fault injection
// and skip-bad-records (detail::run_task_attempts), the splits, the task
// scheduling and pool, and the cancellation polls. Each task records the
// JobMetrics the cluster simulator consumes. A shuffled record is charged
// 8 + 4 + 8·dim bytes — u64 key, u32 id, the coordinates — and a spilled
// one takes 4 + 8·dim: its key is its bucket.
#pragma once

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/timer.hpp"
#include "src/common/trace.hpp"
#include "src/dataset/point_set.hpp"
#include "src/mapreduce/job.hpp"

namespace mrsky::mr {

/// Where a row job's map function sends its rows: one PointSet per reduce
/// bucket of the map task.
class RowEmitter {
 public:
  RowEmitter(std::size_t dim, std::size_t buckets) : buckets_(buckets, data::PointSet(dim)) {}

  /// Appends a row to bucket `key`.
  void emit(std::size_t key, std::span<const double> coords, data::PointId id) {
    MRSKY_REQUIRE(key < buckets_.size(), "row job emitted key " + std::to_string(key) +
                                             " but has " + std::to_string(buckets_.size()) +
                                             " reduce tasks");
    buckets_[key].push_back(coords, id);
  }

  /// Drops every row (a failed attempt's output), keeping the capacity.
  void clear() noexcept {
    for (data::PointSet& bucket : buckets_) bucket.clear();
  }

  /// Transfers the buckets out.
  [[nodiscard]] std::vector<data::PointSet> take() { return std::exchange(buckets_, {}); }

 private:
  std::vector<data::PointSet> buckets_;
};

struct RowJobConfig {
  std::string name = "row-job";
  std::size_t num_map_tasks = 1;
  std::size_t num_reduce_tasks = 1;
  std::size_t dim = 1;

  /// Maps input row `row`, a global index in [0, input_rows): emits it to a
  /// bucket, or drops it.
  std::function<void(std::size_t row, RowEmitter& out, TaskContext& ctx)> map_fn;
  /// Turns the rows of bucket `key` (its whole key group) into output rows.
  using GroupFn = std::function<data::PointSet(std::size_t key, const data::PointSet& rows,
                                               TaskContext& ctx)>;
  GroupFn combine_fn;  ///< optional map-side combine, once per non-empty bucket
  GroupFn reduce_fn;
};

struct RowJobResult {
  /// output[k] holds what reduce task k returned: the output rows of key k.
  std::vector<data::PointSet> output;
  JobMetrics metrics;
};

namespace detail {

/// Bytes a shuffled row is charged: u64 key, u32 id, the coordinates.
[[nodiscard]] inline std::uint64_t row_shuffle_bytes(std::size_t dim) noexcept {
  return sizeof(std::uint64_t) + sizeof(data::PointId) + dim * sizeof(double);
}

/// Bytes a spilled row takes: its id and its coordinates (its key is the
/// bucket whose span holds it).
[[nodiscard]] inline std::uint64_t row_spill_bytes(std::size_t dim) noexcept {
  return sizeof(data::PointId) + dim * sizeof(double);
}

/// One map task's spill file. Bucket b's span holds rows
/// [row_offsets[b], row_offsets[b + 1]) of the file: their coordinates, then
/// their ids.
struct RowSpill {
  std::string path;
  std::vector<std::uint64_t> row_offsets;

  [[nodiscard]] std::uint64_t rows(std::size_t b) const {
    return row_offsets[b + 1] - row_offsets[b];
  }
};

/// Owns one spill file descriptor; -1 when the open failed.
class SpillFd {
 public:
  SpillFd(const std::string& path, int flags)
      : fd_(::open(path.c_str(), flags | O_CLOEXEC, 0600)) {}
  ~SpillFd() {
    if (fd_ >= 0) ::close(fd_);
  }
  SpillFd(const SpillFd&) = delete;
  SpillFd& operator=(const SpillFd&) = delete;

  [[nodiscard]] int get() const noexcept { return fd_; }
  /// Closes now; false when the close failed (a write may not have landed).
  [[nodiscard]] bool close() noexcept { return ::close(std::exchange(fd_, -1)) == 0; }

 private:
  int fd_;
};

/// Moves every byte of `iov` to (write) or from (read) `fd` at `offset`,
/// resuming after short transfers. Returns false when a read meets the end
/// of the file first; throws RuntimeError on an I/O error.
inline bool transfer_all(int fd, iovec* iov, int count, off_t offset, bool write,
                         const std::string& path) {
  while (count > 0) {
    const ssize_t n =
        write ? ::pwritev(fd, iov, count, offset) : ::preadv(fd, iov, count, offset);
    if (n < 0) {
      if (errno == EINTR) continue;
      MRSKY_FAIL(std::string("shuffle spill ") + (write ? "write" : "read") + " failed: " + path);
    }
    if (n == 0) return false;
    offset += n;
    auto left = static_cast<std::size_t>(n);
    while (count > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
  return true;
}

/// Writes `shards` — one map task's buckets — to a new spill file in `spill`
/// and frees each bucket as soon as it is on disk.
inline void write_row_spill(RowSpill& spill, std::vector<data::PointSet>& shards,
                            std::size_t dim) {
  SpillFd fd(spill.path, O_WRONLY | O_CREAT | O_TRUNC);
  if (fd.get() < 0) MRSKY_FAIL("cannot open shuffle spill file: " + spill.path);
  spill.row_offsets.assign(1, 0);
  spill.row_offsets.reserve(shards.size() + 1);
  for (data::PointSet& shard : shards) {
    const std::uint64_t first = spill.row_offsets.back();
    spill.row_offsets.push_back(first + shard.size());
    if (shard.empty()) continue;
    iovec iov[2] = {{const_cast<double*>(shard.raw().data()), shard.raw().size_bytes()},
                    {const_cast<data::PointId*>(shard.ids().data()), shard.ids().size_bytes()}};
    if (!transfer_all(fd.get(), iov, 2, static_cast<off_t>(first * row_spill_bytes(dim)),
                      /*write=*/true, spill.path)) {
      MRSKY_FAIL("shuffle spill write failed: " + spill.path);
    }
    shard = data::PointSet(dim);
  }
  if (!fd.close()) MRSKY_FAIL("shuffle spill write failed: " + spill.path);
}

/// Appends bucket b's span of `spill` to `coords` and `ids` with one read.
/// The file must still hold exactly what was written: a shorter, longer or
/// missing file is a typed RuntimeError, never a read past the span.
inline void read_row_spill(const RowSpill& spill, std::size_t b, std::size_t dim,
                           std::vector<double>& coords, std::vector<data::PointId>& ids) {
  const std::uint64_t rows = spill.rows(b);
  if (rows == 0) return;
  // A private descriptor per span keeps concurrent bucket builds safe.
  const SpillFd fd(spill.path, O_RDONLY);
  if (fd.get() < 0) MRSKY_FAIL("cannot reopen shuffle spill file: " + spill.path);
  struct stat st{};
  const bool sized = ::fstat(fd.get(), &st) == 0;
  const std::uint64_t expected = spill.row_offsets.back() * row_spill_bytes(dim);
  const auto actual = static_cast<std::uint64_t>(st.st_size);
  bool complete = sized && actual == expected;
  if (complete) {
    const std::size_t at = ids.size();
    coords.resize(coords.size() + rows * dim);
    ids.resize(at + rows);
    iovec iov[2] = {{coords.data() + at * dim, rows * dim * sizeof(double)},
                    {ids.data() + at, rows * sizeof(data::PointId)}};
    complete = transfer_all(fd.get(), iov, 2,
                            static_cast<off_t>(spill.row_offsets[b] * row_spill_bytes(dim)),
                            /*write=*/false, spill.path);
  }
  if (!complete) {
    MRSKY_FAIL(std::string(actual < expected ? "truncated" : "corrupt") +
               " shuffle spill file: " + spill.path + " (" + std::to_string(actual) +
               " bytes, " + std::to_string(expected) + " written)");
  }
}

}  // namespace detail

/// Executes one row job over `input_rows` input rows. See the file header
/// for the model and RunOptions for execution, faults, tracing and spill.
inline RowJobResult run_row_job(const RowJobConfig& config, std::size_t input_rows,
                                const RunOptions& opts = {}) {
  MRSKY_REQUIRE(static_cast<bool>(config.map_fn), "row job needs a map function");
  MRSKY_REQUIRE(static_cast<bool>(config.reduce_fn), "row job needs a reduce function");
  MRSKY_REQUIRE(config.num_map_tasks >= 1, "need at least one map task");
  MRSKY_REQUIRE(config.num_reduce_tasks >= 1, "need at least one reduce task");
  MRSKY_REQUIRE(config.dim >= 1, "rows need at least one attribute");

  const std::size_t num_maps = config.num_map_tasks;
  const std::size_t num_reduces = config.num_reduce_tasks;
  const std::size_t dim = config.dim;

  RowJobResult result;
  result.metrics.job_name = config.name;
  result.metrics.map_tasks.resize(num_maps);
  result.metrics.reduce_tasks.resize(num_reduces);

  common::ScopedSpan job_span(opts.trace, config.name, "job");
  job_span.arg("map_tasks", num_maps);
  job_span.arg("reduce_tasks", num_reduces);

  opts.cancel.throw_if_stopped("job start");
  const detail::EnginePool pool(opts);

  // ---- Map phase: map into per-bucket rows, optional combine, optional
  // spill. Shuffle metrics are tallied per task and summed in task order
  // below, keeping them independent of scheduling. ----
  const auto offsets = detail::split_offsets(input_rows, num_maps);
  std::vector<std::vector<data::PointSet>> shards(num_maps);
  std::vector<std::uint64_t> task_shuffle_records(num_maps, 0);
  std::vector<std::atomic<std::uint64_t>> routed(num_reduces);

  const bool spill_enabled = opts.shuffle_spill_bytes > 0;
  std::vector<detail::RowSpill> spills(spill_enabled ? num_maps : 0);
  // Spill files are engine-internal temporaries: removed on every exit path,
  // cancellation unwinds included.
  struct SpillCleanup {
    std::vector<detail::RowSpill>* files;
    ~SpillCleanup() {
      for (const auto& f : *files) {
        if (!f.path.empty()) std::remove(f.path.c_str());
      }
    }
  } spill_cleanup{&spills};

  detail::for_each_task(num_maps, pool.get(), [&](std::size_t t) {
    common::ScopedSpan task_span(opts.trace, "map", "task");
    task_span.arg("job", config.name);
    task_span.arg("task", t);
    common::Timer timer;
    TaskContext ctx;
    RowEmitter emitter(dim, num_reduces);
    // A failing attempt dies before combine and spill, so clearing the
    // emitter (reset) is exactly the partial-output discard.
    auto outcome = detail::run_task_attempts(
        opts, config.name, /*phase=*/0, t, offsets[t + 1] - offsets[t], ctx,
        [&emitter] { emitter.clear(); },
        [&](std::size_t i, TaskContext& attempt_ctx, bool /*may_fail*/) -> std::uint64_t {
          config.map_fn(offsets[t] + i, emitter, attempt_ctx);
          return 1;
        });
    auto& task_shards = shards[t];
    task_shards = emitter.take();
    // Routing is counted on the map output itself, before a combiner
    // rewrites it.
    std::uint64_t emitted = 0;
    for (std::size_t b = 0; b < num_reduces; ++b) {
      const std::uint64_t count = task_shards[b].size();
      if (count > 0) routed[b].fetch_add(count, std::memory_order_relaxed);
      emitted += count;
    }
    auto& m = result.metrics.map_tasks[t];
    m.records_in = offsets[t + 1] - offsets[t];
    m.records_out = emitted;
    if (config.combine_fn) {
      common::ScopedSpan combine_span(opts.trace, "combine", "task");
      combine_span.arg("task", t);
      combine_span.arg("records_in", emitted);
      m.records_out = 0;
      for (std::size_t b = 0; b < num_reduces; ++b) {
        if (task_shards[b].empty()) continue;
        task_shards[b] = config.combine_fn(b, task_shards[b], ctx);
        m.records_out += task_shards[b].size();
      }
      combine_span.arg("records_out", m.records_out);
    }
    task_shuffle_records[t] = m.records_out;
    if (spill_enabled &&
        m.records_out * detail::row_shuffle_bytes(dim) * num_maps > opts.shuffle_spill_bytes) {
      // This task's share projects the job past the budget: write its
      // buckets to disk. The decision is a pure function of the task's own
      // output, so it is identical under kSequential and kThreads.
      common::ScopedSpan spill_span(opts.trace, "spill", "shuffle");
      spill_span.arg("task", t);
      static std::atomic<std::uint64_t> spill_counter{0};
      const auto dir = opts.spill_dir.empty() ? std::filesystem::temp_directory_path()
                                              : std::filesystem::path(opts.spill_dir);
      auto& spill = spills[t];
      spill.path = (dir / ("mrsky-spill-" + std::to_string(::getpid()) + "-" +
                           std::to_string(spill_counter.fetch_add(
                               1, std::memory_order_relaxed)) +
                           "-" + std::to_string(t) + ".tmp"))
                       .string();
      detail::write_row_spill(spill, task_shards, dim);
      std::vector<data::PointSet>().swap(task_shards);
      spill_span.arg("bytes", m.records_out * detail::row_spill_bytes(dim));
    }
    detail::finish_task(m, ctx, std::move(outcome), timer.elapsed_ns(), task_span);
  });
  const auto task_spilled = [&](std::size_t t) {
    return spill_enabled && !spills[t].path.empty();
  };
  for (std::size_t t = 0; t < num_maps; ++t) {
    result.metrics.shuffle_records += task_shuffle_records[t];
    result.metrics.shuffle_bytes += task_shuffle_records[t] * detail::row_shuffle_bytes(dim);
    if (task_spilled(t)) {
      result.metrics.shuffle_spilled_bytes +=
          spills[t].row_offsets.back() * detail::row_spill_bytes(dim);
      result.metrics.shuffle_spill_files += 1;
    }
  }
  result.metrics.routed_records.reserve(num_reduces);
  for (const auto& count : routed) result.metrics.routed_records.push_back(count.load());

  // ---- Shuffle: bucket b is every map task's span of b, in map-task order
  // — the sequence a sequential run emits, so output stays identical across
  // modes. Under a spill budget the build is deferred into the reduce task,
  // so at most one bucket per worker is in memory. ----
  common::Timer shuffle_timer;
  std::vector<data::PointSet> buckets(num_reduces, data::PointSet(dim));
  const auto build_bucket = [&](std::size_t b) {
    opts.cancel.throw_if_stopped("shuffle bucket");
    common::ScopedSpan bucket_span(opts.trace, "shuffle-bucket", "shuffle");
    std::size_t total = 0;
    for (std::size_t t = 0; t < num_maps; ++t) {
      total += task_spilled(t) ? spills[t].rows(b) : shards[t][b].size();
    }
    std::vector<double> coords;
    std::vector<data::PointId> ids;
    coords.reserve(total * dim);
    ids.reserve(total);
    for (std::size_t t = 0; t < num_maps; ++t) {
      if (task_spilled(t)) {
        detail::read_row_spill(spills[t], b, dim, coords, ids);
        continue;
      }
      data::PointSet& shard = shards[t][b];
      coords.insert(coords.end(), shard.raw().begin(), shard.raw().end());
      ids.insert(ids.end(), shard.ids().begin(), shard.ids().end());
      shard = data::PointSet(dim);
    }
    buckets[b] = data::PointSet(dim, std::move(coords), std::move(ids));
    bucket_span.arg("bucket", b);
    bucket_span.arg("records", total);
  };
  std::atomic<std::uint64_t> deferred_shuffle_ns{0};
  if (!spill_enabled) {
    common::ScopedSpan shuffle_span(opts.trace, "shuffle", "shuffle");
    shuffle_span.arg("job", config.name);
    shuffle_span.arg("records", result.metrics.shuffle_records);
    shuffle_span.arg("bytes", result.metrics.shuffle_bytes);
    detail::for_each_task(num_reduces, pool.get(), build_bucket);
  }
  result.metrics.shuffle_ns = shuffle_timer.elapsed_ns();

  // ---- Reduce phase: one key group per bucket, so a non-empty bucket is
  // one input unit of the attempt loop and an empty one none. The reduce
  // function reads the bucket and never consumes it, so a retry re-reduces
  // the same rows. ----
  opts.cancel.throw_if_stopped("reduce phase start");
  result.output.assign(num_reduces, data::PointSet(dim));
  detail::for_each_task(num_reduces, pool.get(), [&](std::size_t t) {
    common::ScopedSpan task_span(opts.trace, "reduce", "task");
    task_span.arg("job", config.name);
    task_span.arg("task", t);
    common::Timer timer;
    TaskContext ctx;
    if (spill_enabled) {
      common::Timer bucket_timer;
      build_bucket(t);
      deferred_shuffle_ns.fetch_add(bucket_timer.elapsed_ns(), std::memory_order_relaxed);
    }
    const data::PointSet& rows = buckets[t];
    data::PointSet& out = result.output[t];
    auto outcome = detail::run_task_attempts(
        opts, config.name, /*phase=*/1, t, rows.empty() ? 0 : 1, ctx,
        [&out, dim] { out = data::PointSet(dim); },
        [&](std::size_t, TaskContext& attempt_ctx, bool /*may_fail*/) -> std::uint64_t {
          out = config.reduce_fn(t, rows, attempt_ctx);
          return rows.size();
        });
    auto& m = result.metrics.reduce_tasks[t];
    m.records_in = rows.size();
    // The bucket is dead once reduced; reclaim eagerly so a deferred
    // (spilled) shuffle holds at most one bucket per worker lane.
    buckets[t] = data::PointSet(dim);
    m.records_out = out.size();
    detail::finish_task(m, ctx, std::move(outcome), timer.elapsed_ns(), task_span);
  });

  // Deferred bucket builds are shuffle work that happened to run inside
  // reduce tasks; account them where the eager path would have.
  if (spill_enabled) {
    result.metrics.shuffle_ns +=
        static_cast<std::int64_t>(deferred_shuffle_ns.load(std::memory_order_relaxed));
  }
  return result;
}

}  // namespace mrsky::mr
