// Out-of-core columnar block storage: the `.mrb` writer and mmap reader.
//
// BlockStoreWriter streams rows into fixed-capacity blocks (block_format.hpp
// describes the layout) and finishes with a footer index of per-block
// {offset, rows, bytes, checksum, min corner, max corner}. BlockStore maps
// the finished file read-only (mmap + MADV_SEQUENTIAL), validates header,
// trailer and footer checksum at open, and exposes each block as a BlockRef:
// a zero-copy view whose tile pointers feed skyline::compare_block /
// dominators_in_block directly — the on-disk layout is the TiledWindow
// layout, so "open the file" is the whole decode step.
//
// Payload checksums are verified lazily, once, on first BlockRef access
// (thread-safe), so a pre-shuffle prune that drops a block from its footer
// corner never pays for reading the block's pages. release() hands finished
// blocks back to the kernel (MADV_DONTNEED), which is what keeps a
// sequential scan's resident set at a few blocks regardless of file size.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/dataset/block_format.hpp"
#include "src/dataset/parse_report.hpp"
#include "src/dataset/point_set.hpp"

namespace mrsky::data {

class BlockStoreWriter {
 public:
  /// Opens `path` for writing `dim`-dimensional rows in blocks of
  /// `block_rows`. Throws mrsky::InvalidArgument, before opening the file,
  /// when `dim` is 0 or above blockfmt::kMaxDim, and mrsky::RuntimeError on
  /// I/O failure. Output is a pure function of the append sequence —
  /// bit-identical files for identical input, whatever the batching of the
  /// append calls.
  BlockStoreWriter(const std::string& path, std::size_t dim,
                   std::size_t block_rows = blockfmt::kDefaultBlockRows);
  ~BlockStoreWriter();

  BlockStoreWriter(const BlockStoreWriter&) = delete;
  BlockStoreWriter& operator=(const BlockStoreWriter&) = delete;

  void append(PointId id, std::span<const double> coords);
  void append(const PointSet& ps);
  /// Appends rows `rows[0]`, `rows[1]`, ... of `ps`, in that order, without
  /// copying the whole set as `ps.select(rows)` would.
  void append(const PointSet& ps, std::span<const std::size_t> rows);

  /// Flushes the last partial block and writes footer + trailer. Idempotent;
  /// the destructor calls it swallowing errors — call close() when you care.
  void close();

  [[nodiscard]] std::size_t rows_written() const noexcept { return total_rows_; }
  [[nodiscard]] std::size_t blocks_written() const noexcept { return blocks_flushed_; }

 private:
  void flush_block();

  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::size_t dim_;
  std::size_t block_rows_;
  std::size_t total_rows_ = 0;
  std::size_t blocks_flushed_ = 0;
  bool closed_ = false;
};

class BlockStore {
 public:
  /// Zero-copy view of one mapped block. `tiles` is attribute-major 8-lane
  /// TiledWindow layout: tile t starts at tiles + t * dim * kTileLanes,
  /// attribute a's lane values at tile + a * kTileLanes, dead lanes +inf.
  struct BlockRef {
    const double* tiles = nullptr;
    const PointId* ids = nullptr;
    std::size_t rows = 0;
    std::size_t dim = 0;

    [[nodiscard]] std::size_t tile_count() const noexcept {
      return blockfmt::tiles_for(rows);
    }
    [[nodiscard]] const double* tile_data(std::size_t t) const noexcept {
      return tiles + t * dim * blockfmt::kTileLanes;
    }
    /// Bitmask of live lanes in tile t (dead padding lanes excluded).
    [[nodiscard]] std::uint32_t valid_mask(std::size_t t) const noexcept {
      const std::size_t valid = rows - t * blockfmt::kTileLanes >= blockfmt::kTileLanes
                                    ? blockfmt::kTileLanes
                                    : rows - t * blockfmt::kTileLanes;
      return (std::uint32_t{1} << valid) - 1;
    }
    /// Gathers row r's coordinates (stride-kTileLanes within its tile) into
    /// `dst` (dim contiguous doubles).
    void copy_row(std::size_t r, double* dst) const noexcept {
      const double* tile = tile_data(r / blockfmt::kTileLanes);
      const std::size_t lane = r % blockfmt::kTileLanes;
      for (std::size_t a = 0; a < dim; ++a) dst[a] = tile[a * blockfmt::kTileLanes + lane];
    }
  };

  /// Opens and validates `path`. Throws mrsky::RuntimeError on a missing
  /// file, bad magic, version mismatch, truncation, or a footer whose
  /// checksum disagrees with the trailer.
  explicit BlockStore(const std::string& path);
  ~BlockStore();

  BlockStore(const BlockStore&) = delete;
  BlockStore& operator=(const BlockStore&) = delete;

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] std::size_t rows() const noexcept { return total_rows_; }
  [[nodiscard]] std::size_t block_rows() const noexcept { return block_rows_; }
  [[nodiscard]] std::size_t block_count() const noexcept { return index_.size(); }
  [[nodiscard]] std::uint64_t file_bytes() const noexcept { return file_bytes_; }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

  /// Footer-only statistics — none of these touch the block's pages.
  [[nodiscard]] std::size_t rows_in_block(std::size_t b) const;
  [[nodiscard]] std::uint64_t block_payload_bytes(std::size_t b) const;
  [[nodiscard]] std::uint64_t block_checksum(std::size_t b) const;
  [[nodiscard]] std::span<const double> block_min(std::size_t b) const;
  [[nodiscard]] std::span<const double> block_max(std::size_t b) const;

  /// Mapped view of block b. The first access per block verifies the payload
  /// checksum (thread-safe, cached) and throws mrsky::RuntimeError on
  /// corruption; later accesses are free.
  [[nodiscard]] BlockRef block(std::size_t b) const;

  /// Re-verifies block b's checksum unconditionally (open-time validation
  /// tool; `mrsky inspect --verify`). Throws on mismatch.
  void verify_block(std::size_t b) const;

  /// Advises the kernel that block b's pages will not be needed again soon
  /// (MADV_DONTNEED on the page-aligned payload range). Purely advisory: a
  /// released block can be re-read at refault cost.
  void release(std::size_t b) const noexcept;

  /// Appends block b's rows (row-major, ids preserved) to `out` via one bulk
  /// append_rows. Throws on checksum mismatch.
  void append_block_to(std::size_t b, PointSet& out) const;

  /// The whole file as a resident PointSet. Strict by default; with a report
  /// the read is lenient, like a lenient CSV read: a corrupt block is dropped
  /// whole and accounted as one issue, and a row with a non-finite coordinate
  /// is dropped on its own, one issue each. Issue rows are block indices.
  [[nodiscard]] PointSet materialize(ParseReport* report = nullptr) const;

  /// Row indices (block-local, ascending) of block b's local skyline,
  /// computed with the dominance_block kernel straight off the mapped tiles
  /// — no gather, no PointSet. The demonstration that the storage layout is
  /// the compute layout; used by `mrsky inspect` and the block-prune
  /// soundness tests.
  [[nodiscard]] std::vector<std::size_t> block_skyline_rows(std::size_t b) const;

 private:
  struct IndexEntry {
    std::uint64_t offset = 0;
    std::uint64_t rows = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t checksum = 0;
    std::vector<double> min_corner;
    std::vector<double> max_corner;
  };

  void check_block_index(std::size_t b) const;
  /// Validates the header, trailer and footer of the mapped file and fills
  /// the index; throws mrsky::RuntimeError on the first problem.
  void parse_index();

  std::string path_;
  int fd_ = -1;
  const unsigned char* map_ = nullptr;
  std::uint64_t file_bytes_ = 0;
  std::size_t dim_ = 0;
  std::size_t block_rows_ = 0;
  std::size_t total_rows_ = 0;
  std::vector<IndexEntry> index_;
  /// Lazily-set per-block "payload checksum verified" flags (first-access
  /// verification under concurrent map tasks).
  mutable std::unique_ptr<std::atomic<bool>[]> verified_;
};

/// Writes `ps` as a `.mrb` file (convenience wrapper).
void write_block_store(const std::string& path, const PointSet& ps,
                       std::size_t block_rows = blockfmt::kDefaultBlockRows);

/// Writes rows `rows[0]`, `rows[1]`, ... of `ps` as a `.mrb` file: the bytes
/// of write_block_store(path, ps.select(rows), block_rows), without the copy.
void write_block_store(const std::string& path, const PointSet& ps,
                       std::span<const std::size_t> rows,
                       std::size_t block_rows = blockfmt::kDefaultBlockRows);

/// Deterministic Z-order (Morton) row permutation: attributes normalized to
/// the set's [min, max] range, quantized to 16 bits, compared MSB-first
/// across interleaved dimensions (ids break ties). Writing blocks in this
/// order makes them spatially compact, which is what gives the footer
/// corners pruning power — `mrsky convert --order zorder`.
[[nodiscard]] std::vector<std::size_t> zorder_permutation(const PointSet& ps);

}  // namespace mrsky::data
