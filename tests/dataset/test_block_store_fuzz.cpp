// Damaged `.mrb` files (DESIGN.md decision 16), in the seeded style of
// CsvFuzz. Small stores — d 1–9, full and partial last blocks — go through
// single-byte flips anywhere, truncation at any offset, and rewrites of
// header, index and trailer fields; a rewrite recomputes the footer checksum
// so the parser sees the rewritten value. Every damaged file must either
// read back the original rows bit for bit, or throw mrsky::RuntimeError at
// open or on the first read of the damaged block — never crash, throw
// anything else, or return other rows. A few crafted files pin the
// open-time checks that no offset, count or size can wrap, and the checksum
// pins its values and its any-one-word property.
#include <gtest/gtest.h>

#include <unistd.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/dataset/block_format.hpp"
#include "src/dataset/block_store.hpp"
#include "src/dataset/generators.hpp"

namespace mrsky::data {
namespace {

using Bytes = std::vector<unsigned char>;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name + "-" + std::to_string(::getpid()) + ".mrb";
}

Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::uint64_t get_u64(const Bytes& bytes, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, bytes.data() + at, sizeof(v));
  return v;
}

void put_u64(Bytes& bytes, std::size_t at, std::uint64_t v) {
  std::memcpy(bytes.data() + at, &v, sizeof(v));
}

/// Where the fields of a valid store's bytes sit.
struct Layout {
  std::size_t dim = 0;
  std::size_t footer = 0;  ///< offset of the footer (its u64 block_count)
  std::size_t blocks = 0;
  std::size_t trailer = 0;

  explicit Layout(const Bytes& bytes)
      : dim(get_u64(bytes, 8)),
        footer(get_u64(bytes, bytes.size() - blockfmt::kTrailerBytes)),
        blocks(get_u64(bytes, footer)),
        trailer(bytes.size() - blockfmt::kTrailerBytes) {}

  [[nodiscard]] std::size_t entry(std::size_t b) const {
    return footer + 8 + b * blockfmt::index_entry_bytes(dim);
  }
  [[nodiscard]] std::size_t total_rows() const { return entry(blocks); }
};

/// Recomputes the trailer's footer checksum over the footer the trailer now
/// points at, so a rewritten field reaches the parser.
void reseal(Bytes& bytes) {
  const std::size_t trailer = bytes.size() - blockfmt::kTrailerBytes;
  const std::uint64_t footer = get_u64(bytes, trailer);
  if (footer > trailer) return;  // out of range: the parser refuses it first
  put_u64(bytes, trailer + 8, blockfmt::checksum(bytes.data() + footer, trailer - footer));
}

/// Opens `bytes` as a store and reads every block. Returns "" when the file
/// was refused at open or read back right: each block either threw
/// RuntimeError or returned exactly `rows`' rows of that block. Anything else
/// is described.
std::string check_damaged(const std::string& path, const Bytes& bytes, const PointSet& rows,
                          std::size_t block_rows) {
  write_file(path, bytes);
  try {
    const BlockStore store(path);
    const std::size_t blocks = (rows.size() + block_rows - 1) / block_rows;
    if (store.dim() != rows.dim() || store.block_count() != blocks || store.rows() != rows.size()) {
      return "opened with another shape";
    }
    for (std::size_t b = 0; b < blocks; ++b) {
      PointSet got(rows.dim());
      try {
        store.append_block_to(b, got);
      } catch (const RuntimeError&) {
        continue;  // the damaged block's first read
      }
      const std::size_t first = b * block_rows;
      const std::size_t count = std::min(block_rows, rows.size() - first);
      if (got.size() != count) return "block " + std::to_string(b) + " read another row count";
      for (std::size_t r = 0; r < count; ++r) {
        if (got.id(r) != rows.id(first + r)) {
          return "block " + std::to_string(b) + " read other ids";
        }
        for (std::size_t a = 0; a < rows.dim(); ++a) {
          if (std::bit_cast<std::uint64_t>(got.at(r, a)) !=
              std::bit_cast<std::uint64_t>(rows.at(first + r, a))) {
            return "block " + std::to_string(b) + " read other coordinates";
          }
        }
      }
    }
  } catch (const RuntimeError&) {
    return "";
  } catch (const std::exception& e) {
    return std::string("untyped exception: ") + e.what();
  }
  return "";
}

/// Values a rewritten u64 field takes: edges that wrap sums and products,
/// near misses of the true value, and a random word.
std::uint64_t rewrite_value(common::Rng& rng, std::uint64_t original) {
  const std::uint64_t candidates[] = {0,
                                      1,
                                      original + 1,
                                      original - 1,
                                      original + 4,
                                      original + 8,
                                      original - 8,
                                      original + (std::uint64_t{1} << 60),
                                      std::numeric_limits<std::uint64_t>::max() - 7,
                                      std::numeric_limits<std::uint64_t>::max(),
                                      std::uint64_t{1} << 63,
                                      rng()};
  return candidates[rng.uniform_index(std::size(candidates))];
}

TEST(BlockStoreFuzz, DamagedStoresReadBackOrFailTyped) {
  common::Rng rng(0xB10C5);
  const std::string path = temp_path("bs_fuzz");
  std::size_t cases = 0;
  for (std::size_t store = 0; store < 36; ++store) {
    const std::size_t dim = 1 + store % 9;
    const std::size_t block_rows = std::size_t{1} << rng.uniform_index(6);  // 1 .. 32
    const std::size_t full = 1 + rng.uniform_index(5);
    const std::size_t partial = store % 2 == 0 ? 0 : 1 + rng.uniform_index(block_rows);
    const std::size_t n = full * block_rows + (partial < block_rows ? partial : 0);
    const PointSet rows = generate(Distribution::kIndependent, n, dim, 7 + store);
    write_block_store(path, rows, block_rows);
    const Bytes original = read_file(path);
    const Layout layout(original);
    ASSERT_EQ(layout.blocks, (n + block_rows - 1) / block_rows);

    // The u64 fields a rewrite targets: the header's dim and block_rows,
    // block_count, total_rows, footer_offset and every index entry field.
    std::vector<std::size_t> fields = {8, 16, layout.footer, layout.total_rows(), layout.trailer};
    for (std::size_t b = 0; b < layout.blocks; ++b) {
      for (std::size_t f = 0; f < 4 + 2 * dim; ++f) fields.push_back(layout.entry(b) + 8 * f);
    }

    for (int k = 0; k < 40; ++k, ++cases) {
      Bytes bytes = original;
      std::string what;
      switch (rng.uniform_index(3)) {
        case 0: {
          const std::size_t at = rng.uniform_index(bytes.size());
          bytes[at] ^= static_cast<unsigned char>(1 + rng.uniform_index(255));
          what = "flip at " + std::to_string(at);
          break;
        }
        case 1: {
          const std::size_t size = rng.uniform_index(bytes.size());
          bytes.resize(size);
          what = "truncate to " + std::to_string(size);
          break;
        }
        default: {
          const std::size_t at = fields[rng.uniform_index(fields.size())];
          const std::uint64_t value = rewrite_value(rng, get_u64(bytes, at));
          put_u64(bytes, at, value);
          if (at == 8 || at == 16) {
            // Header fields are outside the footer's checksum.
          } else {
            reseal(bytes);
          }
          what = "rewrite u64 at " + std::to_string(at) + " to " + std::to_string(value);
          break;
        }
      }
      EXPECT_EQ(check_damaged(path, bytes, rows, block_rows), "")
          << "store " << store << " (d=" << dim << ", " << n << " rows of " << block_rows
          << " per block): " << what;
    }
    // The version word too: every other value, version 1 included, is refused.
    Bytes old = original;
    const std::uint32_t v1 = 1;
    std::memcpy(old.data() + 4, &v1, sizeof(v1));
    write_file(path, old);
    EXPECT_THROW(BlockStore{path}, RuntimeError);
  }
  std::remove(path.c_str());
  EXPECT_GE(cases, 1000u);
}

/// A two-block d = `dim` store's bytes, and its layout.
Bytes small_store(const std::string& path, std::size_t dim) {
  write_block_store(path, generate(Distribution::kIndependent, 24, dim, 3), 16);
  return read_file(path);
}

void expect_refused(const std::string& path, const Bytes& bytes, const std::string& reason) {
  write_file(path, bytes);
  try {
    const BlockStore store(path);
    ADD_FAILURE() << "opened a store whose " << reason;
  } catch (const RuntimeError&) {
  }
  std::remove(path.c_str());
}

TEST(BlockStoreCrafted, EntryOffsetThatWrapsIsRefusedAtOpen) {
  // offset + payload_bytes wraps past 2^64 to a small number.
  const std::string path = temp_path("bs_wrap_offset");
  Bytes bytes = small_store(path, 4);
  put_u64(bytes, Layout(bytes).entry(0), std::numeric_limits<std::uint64_t>::max() - 7);
  reseal(bytes);
  expect_refused(path, bytes, "entry offset is 2^64 - 8");
}

TEST(BlockStoreCrafted, MisalignedEntryOffsetIsRefusedAtOpen) {
  // block() reads the payload in place as doubles.
  const std::string path = temp_path("bs_misaligned");
  Bytes bytes = small_store(path, 4);
  const Layout layout(bytes);
  put_u64(bytes, layout.entry(0), get_u64(bytes, layout.entry(0)) + 4);
  reseal(bytes);
  expect_refused(path, bytes, "entry offset is not 8-byte aligned");
}

TEST(BlockStoreCrafted, BlockCountThatWrapsIsRefusedAtOpen) {
  // At d = 1 an index entry is 48 bytes, and 2^60 more entries are 3 · 2^64
  // bytes: the count × entry size product wraps back to the true size.
  const std::string path = temp_path("bs_wrap_count");
  Bytes bytes = small_store(path, 1);
  const Layout layout(bytes);
  ASSERT_EQ(blockfmt::index_entry_bytes(1), 48u);
  put_u64(bytes, layout.footer, layout.blocks + (std::uint64_t{1} << 60));
  reseal(bytes);
  expect_refused(path, bytes, "block count is raised by 2^60");
}

TEST(BlockStoreCrafted, RowCountPastTheFileIsRefusedAtOpen) {
  // At d = 2, 2^62 rows make a payload of 2^66 tile bytes and 2^64 id
  // bytes: the size wraps to 0, which a crafted entry can claim, with the
  // checksum of no bytes and a matching total. The first read would then
  // take 2^62 rows from a mapping of a few hundred bytes.
  const std::string path = temp_path("bs_huge_rows");
  Bytes bytes = small_store(path, 2);
  const Layout layout(bytes);
  const std::uint64_t rows = std::uint64_t{1} << 62;
  ASSERT_EQ(blockfmt::payload_bytes(rows, 2), 0u);
  put_u64(bytes, 16, rows);  // header block_rows
  const std::uint64_t first_rows = get_u64(bytes, layout.entry(0) + 8);
  put_u64(bytes, layout.entry(0) + 8, rows);
  put_u64(bytes, layout.entry(0) + 16, 0);
  put_u64(bytes, layout.entry(0) + 24, blockfmt::checksum(bytes.data(), 0));
  put_u64(bytes, layout.total_rows(), get_u64(bytes, layout.total_rows()) - first_rows + rows);
  reseal(bytes);
  expect_refused(path, bytes, "first block claims 2^62 rows in 0 bytes");
}

TEST(BlockStoreChecksum, AnyOneChangedWordChangesTheSum) {
  common::Rng rng(91);
  for (std::size_t size = 0; size <= 72; ++size) {
    Bytes bytes(size);
    for (auto& b : bytes) b = static_cast<unsigned char>(rng.uniform_index(256));
    const std::uint64_t sum = blockfmt::checksum(bytes.data(), bytes.size());
    for (std::size_t at = 0; at < size; ++at) {
      for (int bit = 0; bit < 8; ++bit) {
        bytes[at] ^= static_cast<unsigned char>(1u << bit);
        EXPECT_NE(blockfmt::checksum(bytes.data(), bytes.size()), sum)
            << "size " << size << " byte " << at << " bit " << bit;
        bytes[at] ^= static_cast<unsigned char>(1u << bit);
      }
    }
    for (std::size_t w = 0; w + 8 <= size; w += 8) {
      const std::uint64_t before = get_u64(bytes, w);
      put_u64(bytes, w, rng() | 1);
      if (get_u64(bytes, w) != before) {
        EXPECT_NE(blockfmt::checksum(bytes.data(), bytes.size()), sum) << "size " << size;
      }
      put_u64(bytes, w, before);
    }
  }
  // The byte count is folded in: zero bytes appended change the sum.
  const Bytes zeros(40, 0);
  EXPECT_NE(blockfmt::checksum(zeros.data(), 33), blockfmt::checksum(zeros.data(), 32));
  EXPECT_NE(blockfmt::checksum(zeros.data(), 40), blockfmt::checksum(zeros.data(), 33));
}

TEST(BlockStoreChecksum, ValuesArePinned) {
  // The stored bytes of every `.mrb` (format version 2) depend on these.
  Bytes bytes(100);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<unsigned char>(i * 37 + 11);
  }
  EXPECT_EQ(blockfmt::checksum(bytes.data(), 0), 0x3fb9ff4cdd1916f5u);
  EXPECT_EQ(blockfmt::checksum(bytes.data(), 7), 0x861845c1a650bf13u);
  EXPECT_EQ(blockfmt::checksum(bytes.data(), 32), 0xabed1ce6b56ee68fu);
  EXPECT_EQ(blockfmt::checksum(bytes.data(), 100), 0x9be667efc355cc74u);
}

}  // namespace
}  // namespace mrsky::data
