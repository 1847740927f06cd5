// On-disk layout of the `.mrb` columnar block store (DESIGN.md decision 16).
//
// A `.mrb` file is a sequence of fixed-capacity blocks whose payload uses the
// exact attribute-major 8-lane tile layout of skyline::TiledWindow: tile t of
// a block is dim × kTileWidth contiguous doubles, attribute a's eight lane
// values at tile + a * kTileWidth, dead lanes padded with +inf. A mapped
// block is therefore directly consumable by the dominance_block kernels
// (compare_block / dominators_in_block) without any gather or copy — the
// storage format *is* the compute format.
//
// Layout (all integers little-endian as written by the host — a working-set
// artifact, not an interchange format):
//
//   header : magic "MRB1" | u32 version (2) | u64 dim | u64 block_rows
//   blocks : per block, 8-byte aligned —
//              tiles : ceil(rows / 8) × dim × 8 f64   (TiledWindow layout)
//              ids   : rows × u32, zero-padded to an 8-byte boundary
//   footer : u64 block_count
//            block_count × ( u64 offset | u64 rows | u64 payload_bytes |
//                            u64 checksum | dim × f64 min | dim × f64 max )
//            u64 total_rows
//   trailer: u64 footer_offset | u64 footer_checksum | magic "1BRM"
//
// The per-block footer entry carries everything a scheduler needs without
// touching the payload: row count, payload footprint, a checksum of the
// payload bytes, and the componentwise min/max corner of the block's
// rows — the statistic behind pre-shuffle block pruning (a block whose min
// corner is strictly dominated in every attribute by a known point contains
// no skyline member). The footer has its own checksum in the trailer so a
// truncated or bit-flipped index is a typed error at open, never a crash or
// a silent mis-read. Both checksums are `checksum()` below; version 1 used
// byte-wise FNV-1a, and a version-1 file is refused at open.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace mrsky::data::blockfmt {

inline constexpr char kHeaderMagic[4] = {'M', 'R', 'B', '1'};
inline constexpr char kTrailerMagic[4] = {'1', 'B', 'R', 'M'};
inline constexpr std::uint32_t kVersion = 2;

/// Lanes per tile — must equal skyline::kTileWidth (static_asserted in
/// block_store.cpp, which may include the skyline header; this header stays
/// dependency-free so the dataset layer never includes skyline code).
inline constexpr std::size_t kTileLanes = 8;

/// Most attributes a `.mrb` file may have. The writer refuses more before it
/// opens its file, and the reader refuses a header that claims more, so no
/// file gets written that nothing can read.
inline constexpr std::size_t kMaxDim = 1024;

/// Default block capacity: 4096 rows keeps a 9-d block's payload at ~300 KiB
/// — large enough to amortise per-block bookkeeping, small enough that a
/// streaming reader's resident set stays a few blocks deep.
inline constexpr std::size_t kDefaultBlockRows = 4096;

/// header: magic + u32 version + u64 dim + u64 block_rows.
inline constexpr std::size_t kHeaderBytes = 4 + 4 + 8 + 8;

/// trailer: u64 footer_offset + u64 footer_checksum + magic.
inline constexpr std::size_t kTrailerBytes = 8 + 8 + 4;

[[nodiscard]] inline constexpr std::size_t tiles_for(std::size_t rows) noexcept {
  return (rows + kTileLanes - 1) / kTileLanes;
}

/// Bytes of one block's tile region (attribute-major lanes, padding included).
[[nodiscard]] inline constexpr std::size_t tile_bytes(std::size_t rows, std::size_t dim) noexcept {
  return tiles_for(rows) * dim * kTileLanes * sizeof(double);
}

/// Bytes of one block's id region (u32 each, zero-padded to 8 bytes).
[[nodiscard]] inline constexpr std::size_t id_bytes(std::size_t rows) noexcept {
  return (rows * sizeof(std::uint32_t) + 7) / 8 * 8;
}

/// Total payload bytes of one block.
[[nodiscard]] inline constexpr std::size_t payload_bytes(std::size_t rows, std::size_t dim) noexcept {
  return tile_bytes(rows, dim) + id_bytes(rows);
}

/// One footer index entry's size for a given dimensionality.
[[nodiscard]] inline constexpr std::size_t index_entry_bytes(std::size_t dim) noexcept {
  return 4 * sizeof(std::uint64_t) + 2 * dim * sizeof(double);
}

/// The checksum of a block payload and of the footer. Word i of the bytes
/// (64-bit, in the file's byte order; a last partial word zero-padded) feeds
/// lane i mod 4 through a multiply-rotate step, and the lanes fold with the
/// byte count. A step is a bijection in its lane and in its word, and the
/// fold is one in each lane, so changing any one word changes the result.
/// Four independent lanes keep the multiplies in flight together, so a scan
/// runs near memory speed; plain integer arithmetic, no intrinsics, so every
/// build writes and accepts the same bytes.
[[nodiscard]] inline std::uint64_t checksum(const void* data, std::size_t size) noexcept {
  constexpr std::uint64_t kMul1 = 0x9E3779B185EBCA87ULL;
  constexpr std::uint64_t kMul2 = 0xC2B2AE3D27D4EB4FULL;
  constexpr std::uint64_t kMul3 = 0x165667B19E3779F9ULL;
  const auto step = [](std::uint64_t lane, std::uint64_t word) {
    return std::rotl(lane + word * kMul2, 31) * kMul1;
  };
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t lane[4] = {kMul1, kMul2, kMul3, ~kMul1};
  std::size_t at = 0;
  for (; at + 32 <= size; at += 32) {
    std::uint64_t w[4];
    std::memcpy(w, bytes + at, sizeof(w));
    lane[0] = step(lane[0], w[0]);
    lane[1] = step(lane[1], w[1]);
    lane[2] = step(lane[2], w[2]);
    lane[3] = step(lane[3], w[3]);
  }
  for (std::size_t l = 0; at < size; at += 8, ++l) {
    std::uint64_t w = 0;
    std::memcpy(&w, bytes + at, size - at < 8 ? size - at : 8);
    lane[l] = step(lane[l], w);
  }
  std::uint64_t h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) + std::rotl(lane[2], 12) +
                    std::rotl(lane[3], 18) + static_cast<std::uint64_t>(size);
  h ^= h >> 33;
  h *= kMul2;
  h ^= h >> 29;
  h *= kMul3;
  h ^= h >> 32;
  return h;
}

}  // namespace mrsky::data::blockfmt
