#include "src/dataset/source.hpp"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>

#include "src/common/error.hpp"
#include "src/dataset/block_store.hpp"

namespace mrsky::data {

namespace {

/// splitmix64: the repo's standard cheap deterministic hash (same family the
/// pipeline's salting uses), here deriving per-block sample offsets.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

[[nodiscard]] bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

// ---- DatasetSource defaults ------------------------------------------------

PointSet DatasetSource::sample(std::size_t target, std::uint64_t seed) const {
  const std::size_t total = size();
  PointSet out(dim());
  if (total == 0) return out;
  if (target >= total) return materialize();
  out.reserve(target);

  // Proportional per-block quotas via the telescoping floor trick:
  // quota_b = floor(seen_after * t / n) - floor(seen_before * t / n), which
  // sums to exactly t and never exceeds a block's row count.
  PointSet scratch(dim());
  std::size_t seen = 0;
  for (std::size_t b = 0; b < block_count(); ++b) {
    const std::size_t rows = block_stats(b).rows;
    const std::size_t before = seen * target / total;
    seen += rows;
    const std::size_t take = seen * target / total - before;
    if (take == 0) continue;
    scratch.clear();
    read_block(b, scratch);
    MRSKY_ASSERT(scratch.size() == rows, "block_stats rows disagree with read_block");
    // Evenly spaced offsets, shifted by a seed+block hash so different seeds
    // see different rows; stride >= 1 keeps picks distinct and in range.
    const std::size_t stride = rows / take;
    const std::size_t shift = stride > 1 ? splitmix64(seed ^ (b * 0x9e3779b97f4a7c15ULL)) %
                                               stride
                                         : 0;
    for (std::size_t r = 0; r < take; ++r) {
      const std::size_t pos = std::min(r * stride + shift, rows - 1);
      out.push_back(scratch.point(pos), scratch.id(pos));
    }
    release_block(b);
  }
  return out;
}

PointSet DatasetSource::materialize() const {
  PointSet out(dim());
  out.reserve(size());
  for (std::size_t b = 0; b < block_count(); ++b) {
    read_block(b, out);
    release_block(b);
  }
  return out;
}

// ---- PointSetSource --------------------------------------------------------

namespace {
/// Virtual block size for in-memory sources: block-oriented consumers see
/// uniform slices, nothing is copied until they ask.
constexpr std::size_t kResidentBlockRows = 4096;
}  // namespace

PointSetSource::PointSetSource(const PointSet& ps) : view_(&ps) {}

PointSetSource::PointSetSource(PointSet&& ps) : owned_(std::move(ps)) {}

std::size_t PointSetSource::block_count() const {
  return (set().size() + kResidentBlockRows - 1) / kResidentBlockRows;
}

BlockStats PointSetSource::block_stats(std::size_t b) const {
  MRSKY_REQUIRE(b < block_count(), "block index out of range");
  BlockStats stats;
  stats.rows = std::min(kResidentBlockRows, set().size() - b * kResidentBlockRows);
  stats.bytes = stats.rows * (set().dim() * sizeof(double) + sizeof(PointId));
  stats.has_corners = false;  // never computed: resident runs must not prune
  return stats;
}

void PointSetSource::read_block(std::size_t b, PointSet& out) const {
  MRSKY_REQUIRE(b < block_count(), "block index out of range");
  const PointSet& ps = set();
  const std::size_t first = b * kResidentBlockRows;
  const std::size_t rows = std::min(kResidentBlockRows, ps.size() - first);
  out.append_rows(ps.raw().subspan(first * ps.dim(), rows * ps.dim()),
                  ps.ids().subspan(first, rows));
}

std::string PointSetSource::describe() const {
  return "memory: " + std::to_string(set().size()) + " x " +
         std::to_string(set().dim()) + "d";
}

// ---- BlockStoreSource ------------------------------------------------------

BlockStoreSource::BlockStoreSource(const std::string& path)
    : store_(std::make_shared<const BlockStore>(path)) {}

BlockStoreSource::BlockStoreSource(std::shared_ptr<const BlockStore> store)
    : store_(std::move(store)) {
  MRSKY_REQUIRE(store_ != nullptr, "null block store");
}

BlockStoreSource::~BlockStoreSource() = default;

std::size_t BlockStoreSource::dim() const { return store_->dim(); }
std::size_t BlockStoreSource::size() const { return store_->rows(); }
std::size_t BlockStoreSource::block_count() const { return store_->block_count(); }

BlockStats BlockStoreSource::block_stats(std::size_t b) const {
  BlockStats stats;
  stats.rows = store_->rows_in_block(b);
  stats.bytes = store_->block_payload_bytes(b);
  stats.has_corners = true;
  const auto mn = store_->block_min(b);
  const auto mx = store_->block_max(b);
  stats.min_corner.assign(mn.begin(), mn.end());
  stats.max_corner.assign(mx.begin(), mx.end());
  return stats;
}

void BlockStoreSource::read_block(std::size_t b, PointSet& out) const {
  store_->append_block_to(b, out);
}

void BlockStoreSource::release_block(std::size_t b) const { store_->release(b); }

PointSet BlockStoreSource::materialize() const { return store_->materialize(); }

std::string BlockStoreSource::describe() const {
  return "block store " + store_->path() + ": " + std::to_string(store_->rows()) + " x " +
         std::to_string(store_->dim()) + "d in " + std::to_string(store_->block_count()) +
         " blocks";
}

// ---- CsvSource -------------------------------------------------------------

CsvSource::CsvSource(const std::string& path, const CsvReadOptions& options,
                     ParseReport* report, std::size_t block_rows)
    : csv_path_(path) {
  std::ifstream file(path);
  if (!file) MRSKY_FAIL("cannot open for reading: " + path);
  CsvRowReader reader(file, options, report);

  // Stage into a private temporary block store next to the system temp dir;
  // the name only needs to be unique per process+source.
  static std::atomic<std::uint64_t> counter{0};
  const auto tag = splitmix64(std::hash<std::string>{}(path)) ^
                   counter.fetch_add(1, std::memory_order_relaxed);
  temp_path_ = (std::filesystem::temp_directory_path() /
                ("mrsky-csv-" + std::to_string(::getpid()) + "-" + std::to_string(tag) +
                 ".mrb"))
                   .string();
  // A throwing constructor never runs ~CsvSource, so a failure after the
  // writer opened the file unlinks it here (the writer is gone by then).
  try {
    {
      BlockStoreWriter writer(temp_path_, reader.dim(),
                              block_rows > 0 ? block_rows : blockfmt::kDefaultBlockRows);
      std::vector<double> row(reader.dim());
      PointId id = 0;
      while (reader.next(id, row)) writer.append(id, row);
      MRSKY_REQUIRE(writer.rows_written() > 0, "CSV contains no usable data rows");
      writer.close();
    }
    backing_ = std::make_unique<BlockStoreSource>(temp_path_);
  } catch (...) {
    std::remove(temp_path_.c_str());
    throw;
  }
}

CsvSource::~CsvSource() {
  backing_.reset();  // unmap before unlink
  if (!temp_path_.empty()) std::remove(temp_path_.c_str());
}

std::size_t CsvSource::dim() const { return backing_->dim(); }
std::size_t CsvSource::size() const { return backing_->size(); }
std::size_t CsvSource::block_count() const { return backing_->block_count(); }
BlockStats CsvSource::block_stats(std::size_t b) const { return backing_->block_stats(b); }
void CsvSource::read_block(std::size_t b, PointSet& out) const {
  backing_->read_block(b, out);
}
void CsvSource::release_block(std::size_t b) const { backing_->release_block(b); }
PointSet CsvSource::materialize() const { return backing_->materialize(); }

std::string CsvSource::describe() const {
  return "csv " + csv_path_ + " (staged): " + std::to_string(size()) + " x " +
         std::to_string(dim()) + "d in " + std::to_string(block_count()) + " blocks";
}

// ---- open_dataset, read_points ---------------------------------------------

std::unique_ptr<DatasetSource> open_dataset(const std::string& path,
                                            const OpenDatasetOptions& options,
                                            ParseReport* report) {
  if (ends_with(path, ".mrb")) {
    return std::make_unique<BlockStoreSource>(path);
  }
  CsvReadOptions csv = options.csv;
  csv.lenient = csv.lenient || report != nullptr;
  return std::make_unique<CsvSource>(path, csv, report, options.csv_block_rows);
}

PointSet read_points(const std::string& path, ParseReport* report) {
  if (ends_with(path, ".mrb")) return BlockStore(path).materialize(report);
  CsvReadOptions csv;
  csv.lenient = report != nullptr;
  return read_csv_file(path, csv, report);
}

}  // namespace mrsky::data
