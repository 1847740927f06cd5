#include "src/dataset/block_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

#include "src/common/error.hpp"
#include "src/skyline/dominance_block.hpp"

namespace mrsky::data {

// The whole point of the format: a mapped block's tile region must be exactly
// what the dominance kernels expect.
static_assert(blockfmt::kTileLanes == skyline::kTileWidth,
              "block store tile layout must match the dominance kernel");

namespace {

template <typename T>
void write_pod(std::ostream& os, const T& value) {
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Unaligned-safe load from the mapped file.
template <typename T>
[[nodiscard]] T load_pod(const unsigned char* p) noexcept {
  T value;
  std::memcpy(&value, p, sizeof(T));
  return value;
}

[[noreturn]] void fail_open(const std::string& path, const std::string& what) {
  MRSKY_FAIL("block store " + path + ": " + what);
}

}  // namespace

// ---- Writer ---------------------------------------------------------------

struct BlockStoreWriter::Impl {
  struct FooterEntry {
    std::uint64_t offset = 0;
    std::uint64_t rows = 0;
    std::uint64_t payload_bytes = 0;
    std::uint64_t checksum = 0;
    std::vector<double> min_corner;
    std::vector<double> max_corner;
  };

  std::string path;
  std::ofstream file;
  // Pending rows, row-major, plus their ids.
  std::vector<double> pending_coords;
  std::vector<PointId> pending_ids;
  // One block's payload, tiles then padded ids (reused across blocks).
  std::vector<double> payload;
  std::vector<FooterEntry> index;
};

BlockStoreWriter::BlockStoreWriter(const std::string& path, std::size_t dim,
                                   std::size_t block_rows)
    : impl_(std::make_unique<Impl>()), dim_(dim), block_rows_(block_rows) {
  MRSKY_REQUIRE(dim >= 1, "block store needs at least one attribute");
  MRSKY_REQUIRE(dim <= blockfmt::kMaxDim,
                "block store holds at most " + std::to_string(blockfmt::kMaxDim) +
                    " attributes, got " + std::to_string(dim));
  MRSKY_REQUIRE(block_rows >= 1, "blocks must hold at least one row");
  impl_->path = path;
  impl_->file.open(path, std::ios::binary | std::ios::trunc);
  if (!impl_->file) MRSKY_FAIL("cannot open block store for writing: " + path);
  impl_->file.write(blockfmt::kHeaderMagic, sizeof(blockfmt::kHeaderMagic));
  write_pod(impl_->file, blockfmt::kVersion);
  write_pod(impl_->file, static_cast<std::uint64_t>(dim));
  write_pod(impl_->file, static_cast<std::uint64_t>(block_rows));
}

BlockStoreWriter::~BlockStoreWriter() {
  try {
    close();
  } catch (...) {
    // Destructor must not throw; callers who care call close() themselves.
  }
}

void BlockStoreWriter::append(PointId id, std::span<const double> coords) {
  MRSKY_REQUIRE(!closed_, "append after close");
  MRSKY_REQUIRE(coords.size() == dim_, "row dimension mismatch");
  impl_->pending_ids.push_back(id);
  impl_->pending_coords.insert(impl_->pending_coords.end(), coords.begin(), coords.end());
  ++total_rows_;
  if (impl_->pending_ids.size() >= block_rows_) flush_block();
}

void BlockStoreWriter::append(const PointSet& ps) {
  MRSKY_REQUIRE(!closed_, "append after close");
  MRSKY_REQUIRE(ps.dim() == dim_, "point set dimension mismatch");
  // Bulk path: fill whole blocks straight from the row-major storage instead
  // of a per-row append (the convert hot path).
  std::size_t row = 0;
  while (row < ps.size()) {
    const std::size_t take =
        std::min(block_rows_ - impl_->pending_ids.size(), ps.size() - row);
    const auto values = ps.raw().subspan(row * dim_, take * dim_);
    const auto ids = ps.ids().subspan(row, take);
    impl_->pending_coords.insert(impl_->pending_coords.end(), values.begin(), values.end());
    impl_->pending_ids.insert(impl_->pending_ids.end(), ids.begin(), ids.end());
    total_rows_ += take;
    row += take;
    if (impl_->pending_ids.size() >= block_rows_) flush_block();
  }
}

void BlockStoreWriter::append(const PointSet& ps, std::span<const std::size_t> rows) {
  MRSKY_REQUIRE(!closed_, "append after close");
  MRSKY_REQUIRE(ps.dim() == dim_, "point set dimension mismatch");
  for (const std::size_t row : rows) {
    MRSKY_REQUIRE(row < ps.size(), "row index out of range");
    const std::span<const double> coords = ps.point(row);
    impl_->pending_coords.insert(impl_->pending_coords.end(), coords.begin(), coords.end());
    impl_->pending_ids.push_back(ps.id(row));
    ++total_rows_;
    if (impl_->pending_ids.size() >= block_rows_) flush_block();
  }
}

void BlockStoreWriter::flush_block() {
  const std::size_t rows = impl_->pending_ids.size();
  if (rows == 0) return;
  auto& file = impl_->file;

  // Transpose row-major pending rows into attribute-major tiles, padding dead
  // lanes with +inf so they die on the first attribute of any dominance scan.
  // The ids follow the tiles, zero-padded, so the payload is one buffer: one
  // checksum pass and one write.
  const std::size_t tiles = blockfmt::tiles_for(rows);
  const std::size_t tile_bytes = blockfmt::tile_bytes(rows, dim_);
  const std::size_t payload_bytes = blockfmt::payload_bytes(rows, dim_);
  std::vector<double>& buffer = impl_->payload;
  buffer.resize(payload_bytes / sizeof(double));
  const auto tile_end = buffer.begin() + static_cast<std::ptrdiff_t>(tiles * dim_ *
                                                                     blockfmt::kTileLanes);
  std::fill(buffer.begin(), tile_end, std::numeric_limits<double>::infinity());
  std::fill(tile_end, buffer.end(), 0.0);  // the id region's padding stays zero bits
  Impl::FooterEntry entry;
  entry.rows = rows;
  entry.min_corner.assign(dim_, std::numeric_limits<double>::infinity());
  entry.max_corner.assign(dim_, -std::numeric_limits<double>::infinity());
  for (std::size_t r = 0; r < rows; ++r) {
    const double* src = impl_->pending_coords.data() + r * dim_;
    double* tile = buffer.data() + (r / blockfmt::kTileLanes) * dim_ * blockfmt::kTileLanes;
    const std::size_t lane = r % blockfmt::kTileLanes;
    for (std::size_t a = 0; a < dim_; ++a) {
      const double v = src[a];
      tile[a * blockfmt::kTileLanes + lane] = v;
      entry.min_corner[a] = std::min(entry.min_corner[a], v);
      entry.max_corner[a] = std::max(entry.max_corner[a], v);
    }
  }
  char* const payload = reinterpret_cast<char*>(buffer.data());
  std::memcpy(payload + tile_bytes, impl_->pending_ids.data(), rows * sizeof(PointId));

  entry.offset = static_cast<std::uint64_t>(file.tellp());
  entry.payload_bytes = payload_bytes;
  entry.checksum = blockfmt::checksum(payload, payload_bytes);
  file.write(payload, static_cast<std::streamsize>(payload_bytes));
  impl_->index.push_back(std::move(entry));

  impl_->pending_coords.clear();
  impl_->pending_ids.clear();
  ++blocks_flushed_;
}

void BlockStoreWriter::close() {
  if (closed_) return;
  flush_block();
  auto& file = impl_->file;
  const auto footer_offset = static_cast<std::uint64_t>(file.tellp());

  // Serialize the footer into a buffer first: the trailer carries the
  // footer's own checksum, so index corruption is a typed error at open.
  std::vector<char> footer;
  auto put = [&footer](const void* data, std::size_t size) {
    const char* bytes = static_cast<const char*>(data);
    footer.insert(footer.end(), bytes, bytes + size);
  };
  const std::uint64_t block_count = impl_->index.size();
  put(&block_count, sizeof(block_count));
  for (const auto& entry : impl_->index) {
    put(&entry.offset, sizeof(entry.offset));
    put(&entry.rows, sizeof(entry.rows));
    put(&entry.payload_bytes, sizeof(entry.payload_bytes));
    put(&entry.checksum, sizeof(entry.checksum));
    put(entry.min_corner.data(), dim_ * sizeof(double));
    put(entry.max_corner.data(), dim_ * sizeof(double));
  }
  const std::uint64_t total = total_rows_;
  put(&total, sizeof(total));

  file.write(footer.data(), static_cast<std::streamsize>(footer.size()));
  write_pod(file, footer_offset);
  write_pod(file, blockfmt::checksum(footer.data(), footer.size()));
  file.write(blockfmt::kTrailerMagic, sizeof(blockfmt::kTrailerMagic));
  file.flush();
  if (!file) MRSKY_FAIL("block store write failed on close: " + impl_->path);
  file.close();
  closed_ = true;
}

// ---- Reader ---------------------------------------------------------------

BlockStore::BlockStore(const std::string& path) : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) fail_open(path, "cannot open file");
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fd_ = -1;
    fail_open(path, "cannot stat file");
  }
  file_bytes_ = static_cast<std::uint64_t>(st.st_size);
  if (file_bytes_ < blockfmt::kHeaderBytes + blockfmt::kTrailerBytes) {
    ::close(fd_);
    fd_ = -1;
    fail_open(path, "truncated file (smaller than header + trailer)");
  }
  void* map = ::mmap(nullptr, file_bytes_, PROT_READ, MAP_PRIVATE, fd_, 0);
  if (map == MAP_FAILED) {
    ::close(fd_);
    fd_ = -1;
    fail_open(path, "mmap failed");
  }
  map_ = static_cast<const unsigned char*>(map);
  // The dominant access pattern is a front-to-back block scan; tell the
  // kernel so readahead works for us instead of against the RSS budget.
  ::madvise(const_cast<unsigned char*>(map_), file_bytes_, MADV_SEQUENTIAL);

  // Any failure below — a typed refusal or an allocation that throws —
  // unmaps and closes before it propagates: a throwing constructor never
  // runs the destructor.
  try {
    parse_index();
  } catch (...) {
    ::munmap(const_cast<unsigned char*>(map_), file_bytes_);
    ::close(fd_);
    map_ = nullptr;
    fd_ = -1;
    throw;
  }
}

void BlockStore::parse_index() {
  const auto fail = [this](const std::string& what) { fail_open(path_, what); };
  if (std::memcmp(map_, blockfmt::kHeaderMagic, sizeof(blockfmt::kHeaderMagic)) != 0) {
    fail("not a block store (bad header magic)");
  }
  const auto version = load_pod<std::uint32_t>(map_ + 4);
  if (version != blockfmt::kVersion) {
    fail("unsupported version " + std::to_string(version));
  }
  dim_ = static_cast<std::size_t>(load_pod<std::uint64_t>(map_ + 8));
  block_rows_ = static_cast<std::size_t>(load_pod<std::uint64_t>(map_ + 16));
  if (dim_ == 0 || dim_ > blockfmt::kMaxDim) fail("implausible dimension in header");
  if (block_rows_ == 0) fail("zero block_rows in header");

  const unsigned char* trailer = map_ + file_bytes_ - blockfmt::kTrailerBytes;
  if (std::memcmp(trailer + 16, blockfmt::kTrailerMagic,
                  sizeof(blockfmt::kTrailerMagic)) != 0) {
    fail("truncated file (bad trailer magic)");
  }
  const auto footer_offset = load_pod<std::uint64_t>(trailer);
  const auto footer_checksum = load_pod<std::uint64_t>(trailer + 8);
  if (footer_offset < blockfmt::kHeaderBytes ||
      footer_offset > file_bytes_ - blockfmt::kTrailerBytes) {
    fail("footer offset out of range");
  }
  const unsigned char* footer = map_ + footer_offset;
  const std::size_t footer_size =
      static_cast<std::size_t>(file_bytes_ - blockfmt::kTrailerBytes - footer_offset);
  if (blockfmt::checksum(footer, footer_size) != footer_checksum) {
    fail("footer checksum mismatch (corrupted index?)");
  }

  // Footer contents are checksum-clean; parse with size checks anyway so a
  // colliding corruption, or a crafted file with a recomputed checksum,
  // still cannot walk off the mapping. No check below forms a sum or a
  // product that could wrap: the count is bounded by the footer's size
  // before it is multiplied, and each payload range is compared by
  // difference.
  const std::size_t entry_bytes = blockfmt::index_entry_bytes(dim_);
  constexpr std::size_t kCountAndTotal = 2 * sizeof(std::uint64_t);
  if (footer_size < kCountAndTotal) fail("footer size disagrees with block count");
  const auto block_count = load_pod<std::uint64_t>(footer);
  if (block_count > (footer_size - kCountAndTotal) / entry_bytes ||
      footer_size != kCountAndTotal + static_cast<std::size_t>(block_count) * entry_bytes) {
    fail("footer size disagrees with block count");
  }
  // Every row takes at least its coordinates and its id from the payload.
  const std::uint64_t max_rows = footer_offset / (dim_ * sizeof(double) + sizeof(PointId));
  const unsigned char* p = footer + sizeof(std::uint64_t);
  index_.resize(static_cast<std::size_t>(block_count));
  for (auto& entry : index_) {
    entry.offset = load_pod<std::uint64_t>(p);
    entry.rows = load_pod<std::uint64_t>(p + 8);
    entry.payload_bytes = load_pod<std::uint64_t>(p + 16);
    entry.checksum = load_pod<std::uint64_t>(p + 24);
    p += 32;
    entry.min_corner.resize(dim_);
    entry.max_corner.resize(dim_);
    std::memcpy(entry.min_corner.data(), p, dim_ * sizeof(double));
    p += dim_ * sizeof(double);
    std::memcpy(entry.max_corner.data(), p, dim_ * sizeof(double));
    p += dim_ * sizeof(double);
    if (entry.rows == 0 || entry.rows > block_rows_ || entry.rows > max_rows) {
      fail("index entry with implausible row count");
    }
    if (entry.payload_bytes != blockfmt::payload_bytes(entry.rows, dim_)) {
      fail("index entry payload size disagrees with row count");
    }
    if (entry.offset < blockfmt::kHeaderBytes || entry.offset > footer_offset ||
        entry.payload_bytes > footer_offset - entry.offset) {
      fail("index entry points outside the block region");
    }
    // block() reads the payload as doubles in place.
    if (entry.offset % sizeof(double) != 0) fail("index entry offset is not 8-byte aligned");
    total_rows_ += static_cast<std::size_t>(entry.rows);
  }
  const auto recorded_total = load_pod<std::uint64_t>(p);
  if (recorded_total != total_rows_) fail("footer total_rows disagrees with index");

  verified_ = std::make_unique<std::atomic<bool>[]>(index_.size());
  for (std::size_t b = 0; b < index_.size(); ++b) {
    verified_[b].store(false, std::memory_order_relaxed);
  }
}

BlockStore::~BlockStore() {
  if (map_ != nullptr) ::munmap(const_cast<unsigned char*>(map_), file_bytes_);
  if (fd_ >= 0) ::close(fd_);
}

void BlockStore::check_block_index(std::size_t b) const {
  MRSKY_REQUIRE(b < index_.size(), "block index out of range");
}

std::size_t BlockStore::rows_in_block(std::size_t b) const {
  check_block_index(b);
  return static_cast<std::size_t>(index_[b].rows);
}

std::uint64_t BlockStore::block_payload_bytes(std::size_t b) const {
  check_block_index(b);
  return index_[b].payload_bytes;
}

std::uint64_t BlockStore::block_checksum(std::size_t b) const {
  check_block_index(b);
  return index_[b].checksum;
}

std::span<const double> BlockStore::block_min(std::size_t b) const {
  check_block_index(b);
  return index_[b].min_corner;
}

std::span<const double> BlockStore::block_max(std::size_t b) const {
  check_block_index(b);
  return index_[b].max_corner;
}

void BlockStore::verify_block(std::size_t b) const {
  check_block_index(b);
  const IndexEntry& entry = index_[b];
  const unsigned char* payload = map_ + entry.offset;
  if (blockfmt::checksum(payload, static_cast<std::size_t>(entry.payload_bytes)) !=
      entry.checksum) {
    MRSKY_FAIL("block store " + path_ + ": block " + std::to_string(b) +
               " checksum mismatch (corrupted file?)");
  }
  verified_[b].store(true, std::memory_order_release);
}

BlockStore::BlockRef BlockStore::block(std::size_t b) const {
  check_block_index(b);
  // Verify-once: racing threads may both checksum the block, but the flag
  // only ever goes false -> true, so nobody skips an unverified block.
  if (!verified_[b].load(std::memory_order_acquire)) verify_block(b);
  const IndexEntry& entry = index_[b];
  BlockRef ref;
  ref.rows = static_cast<std::size_t>(entry.rows);
  ref.dim = dim_;
  // The mapped tile region is 8-byte aligned by construction (header is 24
  // bytes, every payload is a multiple of 8), so the reinterpret is sound.
  ref.tiles = reinterpret_cast<const double*>(map_ + entry.offset);
  ref.ids = reinterpret_cast<const PointId*>(map_ + entry.offset +
                                             blockfmt::tile_bytes(ref.rows, dim_));
  return ref;
}

void BlockStore::release(std::size_t b) const noexcept {
  if (b >= index_.size()) return;
  const IndexEntry& entry = index_[b];
  static const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
  // Round inward to full pages so we never discard a neighbouring block's
  // bytes that share an edge page.
  const std::uint64_t begin = (entry.offset + page - 1) / page * page;
  const std::uint64_t end = (entry.offset + entry.payload_bytes) / page * page;
  if (end > begin) {
    ::madvise(const_cast<unsigned char*>(map_) + begin,
              static_cast<std::size_t>(end - begin), MADV_DONTNEED);
  }
}

void BlockStore::append_block_to(std::size_t b, PointSet& out) const {
  MRSKY_REQUIRE(out.dim() == dim_, "point set dimension mismatch");
  const BlockRef ref = block(b);
  thread_local std::vector<double> rows;
  rows.resize(ref.rows * dim_);
  for (std::size_t r = 0; r < ref.rows; ++r) ref.copy_row(r, rows.data() + r * dim_);
  out.append_rows(rows, std::span<const PointId>(ref.ids, ref.rows));
}

PointSet BlockStore::materialize(ParseReport* report) const {
  const bool lenient = report != nullptr;
  PointSet out(dim_);
  out.reserve(total_rows_);
  for (std::size_t b = 0; b < index_.size(); ++b) {
    if (!lenient) {
      append_block_to(b, out);
      continue;
    }
    BlockRef ref;
    try {
      ref = block(b);
    } catch (const mrsky::RuntimeError&) {
      report->add_issue(b, "checksum mismatch (corrupted file?) — " +
                               std::to_string(rows_in_block(b)) + " rows dropped");
      report->rows_skipped += rows_in_block(b) - 1;
      continue;
    }
    std::vector<double> row(dim_);
    for (std::size_t r = 0; r < ref.rows; ++r) {
      ref.copy_row(r, row.data());
      if (!std::all_of(row.begin(), row.end(), [](double v) { return std::isfinite(v); })) {
        report->add_issue(b, "row with non-finite coordinates dropped (id " +
                                 std::to_string(ref.ids[r]) + ")");
        continue;
      }
      ++report->rows_read;
      out.push_back(row, ref.ids[r]);
    }
  }
  return out;
}

std::vector<std::size_t> BlockStore::block_skyline_rows(std::size_t b) const {
  const BlockRef ref = block(b);
  // Straight off the mapped tiles: row r survives iff no other row in the
  // block dominates it. dominators_in_block_scalar is header-inline, so the
  // dataset layer needs no link against the skyline library; +inf padding
  // lanes die on the first attribute and self-comparison is never strict.
  std::vector<std::size_t> out;
  std::vector<double> p(dim_);
  for (std::size_t r = 0; r < ref.rows; ++r) {
    ref.copy_row(r, p.data());
    bool dominated = false;
    for (std::size_t t = 0; t < ref.tile_count() && !dominated; ++t) {
      const std::uint32_t doms =
          skyline::dominators_in_block_scalar(p.data(), ref.tile_data(t), dim_);
      dominated = (doms & ref.valid_mask(t)) != 0;
    }
    if (!dominated) out.push_back(r);
  }
  return out;
}

void write_block_store(const std::string& path, const PointSet& ps,
                       std::size_t block_rows) {
  BlockStoreWriter writer(path, ps.dim(), block_rows);
  writer.append(ps);
  writer.close();
}

void write_block_store(const std::string& path, const PointSet& ps,
                       std::span<const std::size_t> rows, std::size_t block_rows) {
  BlockStoreWriter writer(path, ps.dim(), block_rows);
  writer.append(ps, rows);
  writer.close();
}

// ---- Z-order permutation ---------------------------------------------------

namespace {

/// One radix-sort record: a 64-bit word of the row's Morton key, the row and
/// its id. Sorting moves whole records, so no pass gathers from the rows.
struct ZRecord {
  std::uint64_t key;
  std::uint32_t row;
  PointId id;
};

constexpr unsigned kDigitBits = 16;
constexpr std::uint64_t kDigitMask = (std::uint64_t{1} << kDigitBits) - 1;

/// One stable counting-sort pass of `src` into `dst` by the digit
/// `digit(record)`. Returns false, moving nothing, when every record has the
/// same digit: the pass would leave the order as it is.
template <typename Digit>
bool radix_pass(const std::vector<ZRecord>& src, std::vector<ZRecord>& dst,
                std::vector<std::uint32_t>& count, Digit digit) {
  std::fill(count.begin(), count.end(), 0);
  for (const ZRecord& r : src) ++count[digit(r)];
  if (count[digit(src.front())] == src.size()) return false;
  std::uint32_t start = 0;
  for (std::uint32_t& c : count) start += std::exchange(c, start);
  for (const ZRecord& r : src) dst[count[digit(r)]++] = r;
  return true;
}

}  // namespace

std::vector<std::size_t> zorder_permutation(const PointSet& ps) {
  const std::size_t n = ps.size();
  if (n <= 1) return std::vector<std::size_t>(n, 0);
  MRSKY_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max(),
                "z-order needs fewer than 2^32 rows");

  // Quantize each attribute to 16 bits over its own [min, max] range so every
  // dimension contributes comparably to the curve.
  const auto [lo, hi] = ps.attribute_bounds();
  const std::size_t dim = ps.dim();

  // The Morton key interleaves the 16-bit codes into 16·dim bits: levels run
  // from bit 15 down to 0 with dimension 0 first within a level, so bit l of
  // dimension a sits at l·dim + (dim − 1 − a). Comparing keys is Chan's
  // MSB-first comparison of the codes. Codes are spread `chunk` bits at a
  // time through a table, and the key is stored as little-endian 64-bit words.
  const std::size_t words = (dim + 3) / 4;
  const std::size_t chunk = std::min<std::size_t>(8, 1 + 63 / dim);
  std::vector<std::uint64_t> spread(std::size_t{1} << chunk, 0);
  for (std::size_t v = 0; v < spread.size(); ++v) {
    for (std::size_t b = 0; b < chunk; ++b) spread[v] |= std::uint64_t{(v >> b) & 1} << (b * dim);
  }
  std::vector<ZRecord> recs(n);
  std::vector<std::uint64_t> upper(n * (words - 1));  // key words 1.. per row
  std::vector<std::uint64_t> key(words + 1);          // + a spill word
  for (std::size_t i = 0; i < n; ++i) {
    std::fill(key.begin(), key.end(), 0);
    for (std::size_t a = 0; a < dim; ++a) {
      const double span = hi[a] - lo[a];
      double unit = span > 0 ? (ps.at(i, a) - lo[a]) / span : 0.0;
      if (!std::isfinite(unit)) unit = 0.0;
      unit = std::clamp(unit, 0.0, 1.0);
      const auto q = static_cast<std::uint32_t>(unit * 65535.0);
      for (std::size_t low = 0; low < 16; low += chunk) {
        const std::uint64_t bits = spread[(q >> low) & (spread.size() - 1)];
        const std::size_t pos = low * dim + (dim - 1 - a);
        const std::size_t shift = pos % 64;
        key[pos / 64] |= bits << shift;
        if (shift != 0) key[pos / 64 + 1] |= bits >> (64 - shift);
      }
    }
    recs[i] = ZRecord{key[0], static_cast<std::uint32_t>(i), ps.id(i)};
    std::copy(key.begin() + 1, key.begin() + static_cast<std::ptrdiff_t>(words),
              upper.begin() + static_cast<std::ptrdiff_t>(i * (words - 1)));
  }

  // LSD radix sort by (key, id, row). Records start in row order; stable
  // passes by id and then by the key's digits, least significant first, add
  // the more significant criteria. Ids already non-decreasing in row order
  // need no id pass.
  std::vector<ZRecord> tmp(n);
  std::vector<std::uint32_t> count(std::size_t{1} << kDigitBits);
  const auto sort_by = [&](auto digit) {
    if (radix_pass(recs, tmp, count, digit)) recs.swap(tmp);
  };
  if (!std::is_sorted(ps.ids().begin(), ps.ids().end())) {
    for (unsigned shift = 0; shift < 32; shift += kDigitBits) {
      sort_by([shift](const ZRecord& r) { return (r.id >> shift) & kDigitMask; });
    }
  }
  for (std::size_t w = 0; w < words; ++w) {
    if (w > 0) {
      for (ZRecord& r : recs) r.key = upper[r.row * (words - 1) + (w - 1)];
    }
    const std::size_t key_bits = std::min<std::size_t>(64, 16 * dim - 64 * w);
    for (unsigned shift = 0; shift < key_bits; shift += kDigitBits) {
      sort_by([shift](const ZRecord& r) { return (r.key >> shift) & kDigitMask; });
    }
  }
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = recs[i].row;
  return order;
}

}  // namespace mrsky::data
