// DatasetSource: the seam between "where the points live" and everything
// that consumes them (DESIGN.md decision 16).
//
// Every downstream layer — run_mr_skyline, the QueryEngine, the CLIs and
// benches — programs against this interface instead of a materialised
// PointSet. The contract is block-oriented: a source is a
// sequence of blocks, each readable independently into a caller-owned
// PointSet, with optional per-block statistics (row count, byte footprint,
// min/max corners). A resident source additionally exposes its PointSet
// directly, which is the zero-copy fast path the legacy overloads take —
// wrapping an in-memory set in a PointSetSource costs nothing and changes
// nothing.
//
// Determinism: block order, row order within a block, and sample() output are
// pure functions of the source's construction arguments. Two opens of the
// same `.mrb` file iterate identically; the pipeline's bitwise-identity
// guarantee rests on this.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/dataset/io.hpp"
#include "src/dataset/parse_report.hpp"
#include "src/dataset/point_set.hpp"

namespace mrsky::data {

class BlockStore;

/// Per-block statistics a scheduler can use without reading the block.
/// Corners are only meaningful when `has_corners` — a source that cannot
/// provide them cheaply (e.g. an in-memory set's virtual blocks) reports
/// none, and block-level pruning stays inert for it.
struct BlockStats {
  std::size_t rows = 0;
  std::uint64_t bytes = 0;
  bool has_corners = false;
  std::vector<double> min_corner;
  std::vector<double> max_corner;
};

class DatasetSource {
 public:
  virtual ~DatasetSource() = default;

  [[nodiscard]] virtual std::size_t dim() const = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual std::size_t block_count() const = 0;

  /// Statistics for block b — must not touch the block's payload.
  [[nodiscard]] virtual BlockStats block_stats(std::size_t b) const = 0;

  /// Appends block b's rows (ids preserved, source order) to `out`.
  virtual void read_block(std::size_t b, PointSet& out) const = 0;

  /// Hint that block b's rows will not be needed again soon. Advisory.
  virtual void release_block(std::size_t /*b*/) const {}

  /// The dataset as an already-resident PointSet, or nullptr. Non-null means
  /// consumers may bypass block iteration entirely — the legacy zero-copy
  /// path, taken so in-memory runs stay bitwise- and metrics-identical to
  /// what they were before the source seam existed.
  [[nodiscard]] virtual const PointSet* resident() const { return nullptr; }

  /// Deterministic sample of ~target rows: proportional per-block quotas
  /// (largest-remainder, so quotas sum to target), rows at evenly spaced
  /// in-block offsets with a seed-derived shift. Touches only blocks with a
  /// non-zero quota and releases each afterwards, so sampling a file never
  /// materialises it. Returns everything when target >= size().
  [[nodiscard]] virtual PointSet sample(std::size_t target, std::uint64_t seed) const;

  /// The whole dataset as one PointSet (the compatibility path for consumers
  /// that genuinely need residency, e.g. QueryEngine serving).
  [[nodiscard]] virtual PointSet materialize() const;

  /// One-line human description for logs and CLI banners.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// In-memory adapter: a PointSet seen through the source interface. The
/// non-owning constructor aliases the caller's set (caller keeps it alive);
/// the owning constructor moves it in. Virtual blocks of `block_rows` rows
/// exist so block-oriented consumers still work, but they carry no corners —
/// an in-memory run never block-prunes, preserving legacy behaviour exactly.
class PointSetSource final : public DatasetSource {
 public:
  explicit PointSetSource(const PointSet& ps);
  explicit PointSetSource(PointSet&& ps);

  [[nodiscard]] std::size_t dim() const override { return set().dim(); }
  [[nodiscard]] std::size_t size() const override { return set().size(); }
  [[nodiscard]] std::size_t block_count() const override;
  [[nodiscard]] BlockStats block_stats(std::size_t b) const override;
  void read_block(std::size_t b, PointSet& out) const override;
  [[nodiscard]] const PointSet* resident() const override { return &set(); }
  [[nodiscard]] PointSet materialize() const override { return set(); }
  [[nodiscard]] std::string describe() const override;

 private:
  [[nodiscard]] const PointSet& set() const noexcept {
    return view_ != nullptr ? *view_ : owned_;
  }

  const PointSet* view_ = nullptr;
  PointSet owned_{1};
};

/// A `.mrb` file seen through the source interface: real on-disk blocks,
/// footer corners, mmap-backed reads, MADV_DONTNEED release.
class BlockStoreSource final : public DatasetSource {
 public:
  explicit BlockStoreSource(const std::string& path);
  /// Wraps an already-open store (shared so copies of the source are cheap).
  explicit BlockStoreSource(std::shared_ptr<const BlockStore> store);
  ~BlockStoreSource() override;

  [[nodiscard]] std::size_t dim() const override;
  [[nodiscard]] std::size_t size() const override;
  [[nodiscard]] std::size_t block_count() const override;
  [[nodiscard]] BlockStats block_stats(std::size_t b) const override;
  void read_block(std::size_t b, PointSet& out) const override;
  void release_block(std::size_t b) const override;
  [[nodiscard]] PointSet materialize() const override;
  [[nodiscard]] std::string describe() const override;

  [[nodiscard]] const BlockStore& store() const noexcept { return *store_; }

 private:
  std::shared_ptr<const BlockStore> store_;
};

/// A CSV file seen through the source interface. Construction streams the
/// file row-by-row through the lenient/strict CsvRowReader into a private
/// temporary `.mrb` (removed on destruction), so a CSV bigger than RAM never
/// materialises; afterwards it behaves exactly like a BlockStoreSource.
class CsvSource final : public DatasetSource {
 public:
  /// `report`, when non-null, makes the CSV read lenient and receives the
  /// accepted/dropped accounting (same contract as read_csv).
  explicit CsvSource(const std::string& path, const CsvReadOptions& options = {},
                     ParseReport* report = nullptr,
                     std::size_t block_rows = 0 /* 0 = format default */);
  ~CsvSource() override;

  [[nodiscard]] std::size_t dim() const override;
  [[nodiscard]] std::size_t size() const override;
  [[nodiscard]] std::size_t block_count() const override;
  [[nodiscard]] BlockStats block_stats(std::size_t b) const override;
  void read_block(std::size_t b, PointSet& out) const override;
  void release_block(std::size_t b) const override;
  [[nodiscard]] PointSet materialize() const override;
  [[nodiscard]] std::string describe() const override;

 private:
  std::string csv_path_;
  std::string temp_path_;
  std::unique_ptr<BlockStoreSource> backing_;
};

struct OpenDatasetOptions {
  /// CSV parsing (lenient iff `report` passed to open_dataset).
  CsvReadOptions csv;
  /// Block capacity when a CSV is staged into a temporary block store
  /// (0 = format default).
  std::size_t csv_block_rows = 0;
};

/// Opens `path` as the source its extension implies: `.mrb` → BlockStoreSource
/// (out-of-core), anything else → CsvSource (streamed). A non-null report
/// makes a CSV read lenient; a `.mrb` is read block by block, strictly.
[[nodiscard]] std::unique_ptr<DatasetSource> open_dataset(
    const std::string& path, const OpenDatasetOptions& options = {},
    ParseReport* report = nullptr);

/// Reads all of `path` into memory, in the format its extension implies:
/// `.mrb` → BlockStore::materialize, anything else → CSV. The read is lenient
/// exactly when `report` is non-null: malformed CSV rows, corrupt `.mrb`
/// blocks and rows with a non-finite coordinate are dropped and accounted
/// there instead of failing the read.
[[nodiscard]] PointSet read_points(const std::string& path, ParseReport* report = nullptr);

}  // namespace mrsky::data
