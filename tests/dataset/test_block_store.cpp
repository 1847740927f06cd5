// The `.mrb` block store: round-trip fidelity, footer statistics, lazy
// checksum verification, typed corruption errors, whole-file reads through
// read_points, and the DatasetSource seam every consumer programs against
// (DESIGN.md decision 16).
#include "src/dataset/block_store.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/dataset/generators.hpp"
#include "src/dataset/io.hpp"
#include "src/dataset/source.hpp"
#include "src/skyline/algorithms.hpp"

namespace mrsky::data {
namespace {

std::string temp_path(const std::string& name) { return testing::TempDir() + "/" + name; }

std::vector<char> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void flip_byte_at(const std::string& path, std::streamoff offset) {
  std::fstream file(path, std::ios::binary | std::ios::in | std::ios::out);
  file.seekg(offset);
  char byte = 0;
  file.read(&byte, 1);
  file.seekp(offset);
  byte = static_cast<char>(byte ^ 0x40);
  file.write(&byte, 1);
}

TEST(BlockStore, RoundTripExactBits) {
  const PointSet original = generate(Distribution::kAnticorrelated, 1000, 5, 42);
  const std::string path = temp_path("bs_roundtrip.mrb");
  write_block_store(path, original, /*block_rows=*/128);
  const BlockStore store(path);
  EXPECT_EQ(store.dim(), 5u);
  EXPECT_EQ(store.rows(), 1000u);
  EXPECT_EQ(store.block_rows(), 128u);
  EXPECT_EQ(store.block_count(), 8u);  // 7 full + 1 partial
  EXPECT_EQ(store.materialize(), original);  // bitwise: binary format loses nothing
}

TEST(BlockStore, WriterOutputIndependentOfAppendBatching) {
  const PointSet ps = generate(Distribution::kCorrelated, 300, 4, 7);
  const std::string row_wise = temp_path("bs_rowwise.mrb");
  const std::string bulk = temp_path("bs_bulk.mrb");
  {
    BlockStoreWriter writer(row_wise, 4, 37);  // odd capacity on purpose
    for (std::size_t i = 0; i < ps.size(); ++i) writer.append(ps.id(i), ps.point(i));
    writer.close();
    EXPECT_EQ(writer.rows_written(), 300u);
    EXPECT_EQ(writer.blocks_written(), 9u);  // ceil(300 / 37)
  }
  {
    BlockStoreWriter writer(bulk, 4, 37);
    writer.append(ps);
    writer.close();
  }
  EXPECT_EQ(read_bytes(row_wise), read_bytes(bulk));
}

TEST(BlockStore, EmptySetRoundTrips) {
  const std::string path = temp_path("bs_empty.mrb");
  write_block_store(path, PointSet(3));
  const BlockStore store(path);
  EXPECT_EQ(store.dim(), 3u);
  EXPECT_EQ(store.rows(), 0u);
  EXPECT_EQ(store.block_count(), 0u);
  EXPECT_TRUE(store.materialize().empty());
}

TEST(BlockStore, FooterCornersAreComponentwiseMinMax) {
  const PointSet ps = generate(Distribution::kIndependent, 500, 3, 11);
  const std::string path = temp_path("bs_corners.mrb");
  write_block_store(path, ps, 64);
  const BlockStore store(path);
  std::size_t row = 0;
  for (std::size_t b = 0; b < store.block_count(); ++b) {
    PointSet block(3);
    store.append_block_to(b, block);
    ASSERT_EQ(block.size(), store.rows_in_block(b));
    const auto [min, max] = block.attribute_bounds();
    const auto stored_min = store.block_min(b);
    const auto stored_max = store.block_max(b);
    for (std::size_t a = 0; a < 3; ++a) {
      EXPECT_EQ(stored_min[a], min[a]) << "block " << b << " attr " << a;
      EXPECT_EQ(stored_max[a], max[a]) << "block " << b << " attr " << a;
    }
    // Blocks partition the file in writer order, ids preserved.
    for (std::size_t i = 0; i < block.size(); ++i) {
      EXPECT_EQ(block.id(i), ps.id(row + i));
    }
    row += block.size();
  }
  EXPECT_EQ(row, ps.size());
}

TEST(BlockStore, BlockRefGathersTheOriginalRows) {
  const PointSet ps = generate(Distribution::kIndependent, 100, 4, 13);
  const std::string path = temp_path("bs_ref.mrb");
  write_block_store(path, ps, 60);  // partial second block, partial last tile
  const BlockStore store(path);
  std::vector<double> row(4);
  std::size_t global = 0;
  for (std::size_t b = 0; b < store.block_count(); ++b) {
    const BlockStore::BlockRef ref = store.block(b);
    ASSERT_EQ(ref.dim, 4u);
    for (std::size_t r = 0; r < ref.rows; ++r, ++global) {
      ref.copy_row(r, row.data());
      EXPECT_EQ(ref.ids[r], ps.id(global));
      for (std::size_t a = 0; a < 4; ++a) EXPECT_EQ(row[a], ps.at(global, a));
    }
    // Dead lanes of the last tile are masked out.
    const std::size_t last = ref.tile_count() - 1;
    const std::size_t live = ref.rows - last * blockfmt::kTileLanes;
    EXPECT_EQ(ref.valid_mask(last), (std::uint32_t{1} << live) - 1);
    store.release(b);
  }
  EXPECT_EQ(global, ps.size());
}

TEST(BlockStore, BlockSkylineRowsMatchesNaiveSkyline) {
  const PointSet ps = generate(Distribution::kAnticorrelated, 400, 4, 17);
  const std::string path = temp_path("bs_blocksky.mrb");
  write_block_store(path, ps, 128);
  const BlockStore store(path);
  for (std::size_t b = 0; b < store.block_count(); ++b) {
    PointSet block(4);
    store.append_block_to(b, block);
    const auto expected = sorted_ids(skyline::naive_skyline(block));
    std::vector<PointId> actual;
    for (std::size_t r : store.block_skyline_rows(b)) actual.push_back(block.id(r));
    std::sort(actual.begin(), actual.end());
    EXPECT_EQ(actual, expected) << "block " << b;
  }
}

TEST(BlockStore, MissingFileThrows) {
  EXPECT_THROW(BlockStore("/no/such/file.mrb"), mrsky::RuntimeError);
}

TEST(BlockStore, BadMagicRejected) {
  const std::string path = temp_path("bs_badmagic.mrb");
  std::ofstream file(path, std::ios::binary);
  file << "NOTABLOCKSTORE------------------------------------------";
  file.close();
  EXPECT_THROW(BlockStore{path}, mrsky::RuntimeError);
}

TEST(BlockStore, VersionMismatchRejected) {
  const std::string path = temp_path("bs_badversion.mrb");
  write_block_store(path, generate(Distribution::kIndependent, 50, 2, 19), 32);
  flip_byte_at(path, 4);  // u32 version lives right after the magic
  EXPECT_THROW(BlockStore{path}, mrsky::RuntimeError);
}

TEST(BlockStore, TruncationDetectedAtOpen) {
  const PointSet ps = generate(Distribution::kIndependent, 200, 2, 23);
  const std::string src = temp_path("bs_full.mrb");
  const std::string dst = temp_path("bs_truncated.mrb");
  write_block_store(src, ps, 100);
  const std::vector<char> bytes = read_bytes(src);
  std::ofstream out(dst, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 16));
  out.close();
  EXPECT_THROW(BlockStore{dst}, mrsky::RuntimeError);
}

TEST(BlockStore, FooterCorruptionDetectedAtOpen) {
  const std::string path = temp_path("bs_badfooter.mrb");
  write_block_store(path, generate(Distribution::kIndependent, 200, 2, 29), 100);
  // The footer sits between the payload and the fixed-size trailer; flip a
  // byte inside one of its index entries.
  const auto size = static_cast<std::streamoff>(read_bytes(path).size());
  flip_byte_at(path, size - static_cast<std::streamoff>(blockfmt::kTrailerBytes) - 24);
  EXPECT_THROW(BlockStore{path}, mrsky::RuntimeError);
}

TEST(BlockStore, PayloadCorruptionIsLazyAndTyped) {
  const PointSet ps = generate(Distribution::kIndependent, 200, 2, 31);
  const std::string path = temp_path("bs_badpayload.mrb");
  write_block_store(path, ps, 100);
  flip_byte_at(path, static_cast<std::streamoff>(blockfmt::kHeaderBytes) + 64);
  // Open succeeds (the footer is intact) and footer-only statistics never
  // touch the payload...
  const BlockStore store(path);
  EXPECT_EQ(store.block_count(), 2u);
  EXPECT_EQ(store.rows_in_block(0), 100u);
  EXPECT_FALSE(store.block_min(0).empty());
  // ...but the first page access to block 0 detects the flip.
  EXPECT_THROW((void)store.block(0), mrsky::RuntimeError);
  EXPECT_THROW(store.verify_block(0), mrsky::RuntimeError);
  EXPECT_THROW((void)store.materialize(), mrsky::RuntimeError);
  // Block 1 is untouched and fully readable.
  EXPECT_NO_THROW(store.verify_block(1));
  PointSet second(2);
  store.append_block_to(1, second);
  EXPECT_EQ(second.size(), 100u);
  EXPECT_EQ(second.id(0), ps.id(100));
}

TEST(BlockStore, LenientMaterializeDropsCorruptBlockWhole) {
  const PointSet ps = generate(Distribution::kIndependent, 200, 2, 37);
  const std::string path = temp_path("bs_lenient.mrb");
  write_block_store(path, ps, 100);
  flip_byte_at(path, static_cast<std::streamoff>(blockfmt::kHeaderBytes) + 64);
  const BlockStore store(path);
  ParseReport report;
  const PointSet loaded = store.materialize(&report);
  ASSERT_EQ(loaded.size(), 100u);
  EXPECT_EQ(loaded.id(0), ps.id(100));  // survivors are the second block
  EXPECT_EQ(report.rows_read, 100u);
  EXPECT_EQ(report.rows_skipped, 100u);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].row, 0u);  // issue rows are block indices
  EXPECT_NE(report.issues[0].reason.find("checksum"), std::string::npos);
}

// A lenient read drops each row with a NaN or infinite coordinate on its own
// and keeps its clean neighbours in the same block; a strict read keeps all.
TEST(BlockStore, LenientMaterializeDropsNonFiniteRowsIndividually) {
  const double inf = std::numeric_limits<double>::infinity();
  PointSet ps(2);
  ps.push_back(std::vector<double>{1.0, 2.0}, 10);
  ps.push_back(std::vector<double>{std::numeric_limits<double>::quiet_NaN(), 3.0}, 11);
  ps.push_back(std::vector<double>{4.0, inf}, 12);
  ps.push_back(std::vector<double>{-inf, 5.0}, 13);
  ps.push_back(std::vector<double>{6.0, 7.0}, 14);
  const std::string path = temp_path("bs_lenient_nan.mrb");
  write_block_store(path, ps, 3);
  const BlockStore store(path);
  EXPECT_EQ(store.materialize().size(), 5u);

  ParseReport report;
  const PointSet loaded = store.materialize(&report);
  EXPECT_EQ(loaded, ps.select(std::vector<std::size_t>{0, 4}));
  EXPECT_EQ(report.rows_read, 2u);
  EXPECT_EQ(report.rows_skipped, 3u);
  ASSERT_EQ(report.issues.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(report.issues[i].row, i < 2 ? 0u : 1u);  // the block's index
    EXPECT_NE(report.issues[i].reason.find("non-finite"), std::string::npos);
    EXPECT_NE(report.issues[i].reason.find("id " + std::to_string(11 + i)), std::string::npos);
  }
}

TEST(BlockStore, ZorderPermutationIsADeterministicPermutation) {
  const PointSet ps = generate(Distribution::kClustered, 500, 4, 41);
  const std::vector<std::size_t> perm = zorder_permutation(ps);
  EXPECT_EQ(perm, zorder_permutation(ps));
  std::vector<std::size_t> sorted = perm;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < sorted.size(); ++i) EXPECT_EQ(sorted[i], i);
  // Reordering rows permutes, never alters, the stored set.
  const std::string path = temp_path("bs_zorder.mrb");
  write_block_store(path, ps.select(perm), 64);
  const PointSet loaded = BlockStore(path).materialize();
  EXPECT_EQ(sorted_ids(loaded), sorted_ids(ps));
}

// Rows appended through a permutation write the bytes of the permuted copy:
// z-order, reversed and repeated rows, partial and exact blocks.
TEST(BlockStore, PermutedAppendWritesTheSelectedCopysBytes) {
  struct Shape {
    std::size_t n, dim, block_rows;
  };
  for (const Shape& shape : {Shape{0, 3, 16}, Shape{1, 1, 1}, Shape{1000, 4, 37},
                             Shape{777, 9, 4096}, Shape{4096, 2, 512}}) {
    const PointSet ps = generate(Distribution::kAnticorrelated, shape.n, shape.dim, 67);
    std::vector<std::size_t> reversed(ps.size());
    for (std::size_t i = 0; i < reversed.size(); ++i) reversed[i] = ps.size() - 1 - i;
    std::vector<std::size_t> repeated;
    for (std::size_t i = 0; i < ps.size(); i += 3) repeated.insert(repeated.end(), {i, i});
    for (const std::vector<std::size_t>& rows : {zorder_permutation(ps), reversed, repeated}) {
      const std::string copied = temp_path("bs_selected.mrb");
      const std::string permuted = temp_path("bs_permuted.mrb");
      write_block_store(copied, ps.select(rows), shape.block_rows);
      write_block_store(permuted, ps, rows, shape.block_rows);
      EXPECT_EQ(read_bytes(permuted), read_bytes(copied))
          << shape.n << " x " << shape.dim << " in blocks of " << shape.block_rows;
    }
  }
  BlockStoreWriter writer(temp_path("bs_out_of_range.mrb"), 2);
  const std::vector<std::size_t> past_end = {0, 5};
  EXPECT_THROW(writer.append(generate(Distribution::kIndependent, 5, 2, 3), past_end),
               InvalidArgument);
}

// The writer and the reader share one dimension bound: the widest file
// round-trips, and one attribute more fails typed before a file exists.
TEST(BlockStore, WriterRefusesWhatTheReaderWouldRefuse) {
  const PointSet widest = generate(Distribution::kIndependent, 20, blockfmt::kMaxDim, 71);
  const std::string path = temp_path("bs_widest.mrb");
  write_block_store(path, widest, 8);
  const BlockStore store(path);
  EXPECT_EQ(store.dim(), blockfmt::kMaxDim);
  EXPECT_EQ(store.materialize(), widest);

  const std::string too_wide = temp_path("bs_too_wide.mrb");
  std::filesystem::remove(too_wide);
  EXPECT_THROW(BlockStoreWriter(too_wide, blockfmt::kMaxDim + 1), InvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(too_wide));
  EXPECT_THROW(BlockStoreWriter(too_wide, 0), InvalidArgument);
  EXPECT_FALSE(std::filesystem::exists(too_wide));
}

// ---------------------------------------------------------------------------
// RecordFile: the `.mrb` file as a whole-file record store, written by
// write_block_store / BlockStoreWriter and read back through read_points, the
// one read the CLI, query-script inserts and the server go through.
// ---------------------------------------------------------------------------

TEST(RecordFile, RoundTripExactBits) {
  const PointSet original = generate(Distribution::kIndependent, 1000, 5, 42);
  const std::string path = temp_path("rf_roundtrip.mrb");
  write_block_store(path, original);
  EXPECT_EQ(read_points(path), original);  // bitwise: binary format loses nothing
}

TEST(RecordFile, EmptySetRoundTrips) {
  const std::string path = temp_path("rf_empty.mrb");
  write_block_store(path, PointSet(3));
  const PointSet loaded = read_points(path);
  EXPECT_TRUE(loaded.empty());
  EXPECT_EQ(loaded.dim(), 3u);
}

TEST(RecordFile, BlockStructureFollowsBlockSize) {
  const PointSet ps = generate(Distribution::kIndependent, 1000, 2, 7);
  const std::string path = temp_path("rf_blocks.mrb");
  write_block_store(path, ps, /*block_rows=*/100);
  const BlockStore store(path);
  EXPECT_EQ(store.block_count(), 10u);
  EXPECT_EQ(store.rows(), 1000u);
  for (std::size_t b = 0; b < store.block_count(); ++b) EXPECT_EQ(store.rows_in_block(b), 100u);
}

TEST(RecordFile, PartialLastBlock) {
  const PointSet ps = generate(Distribution::kIndependent, 250, 2, 9);
  const std::string path = temp_path("rf_partial.mrb");
  write_block_store(path, ps, 100);
  const BlockStore store(path);
  ASSERT_EQ(store.block_count(), 3u);  // 100 + 100 + 50
  EXPECT_EQ(store.rows_in_block(2), 50u);
  EXPECT_EQ(read_points(path), ps);
}

TEST(RecordFile, StreamingWriterMatchesBulk) {
  const PointSet ps = generate(Distribution::kCorrelated, 300, 4, 15);
  const std::string streamed = temp_path("rf_streamed.mrb");
  {
    BlockStoreWriter writer(streamed, 4, 37);  // odd block size on purpose
    for (std::size_t i = 0; i < ps.size(); ++i) writer.append(ps.id(i), ps.point(i));
    writer.close();
    EXPECT_EQ(writer.rows_written(), 300u);
  }
  EXPECT_EQ(read_points(streamed), ps);
}

TEST(RecordFile, AppendAfterCloseThrows) {
  BlockStoreWriter writer(temp_path("rf_closed.mrb"), 2);
  writer.close();
  EXPECT_THROW(writer.append(0, std::vector<double>{1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(writer.append(PointSet(2)), InvalidArgument);
}

TEST(RecordFile, DimensionMismatchThrows) {
  BlockStoreWriter writer(temp_path("rf_dim.mrb"), 3);
  EXPECT_THROW(writer.append(0, std::vector<double>{1.0}), InvalidArgument);
  EXPECT_THROW(writer.append(PointSet(2)), InvalidArgument);
}

// Damage to the file's structure is no row-level defect: the lenient read
// refuses it as the strict one does.
TEST(RecordFile, MissingFileThrows) {
  EXPECT_THROW((void)read_points("/no/such/file.mrb"), RuntimeError);
  ParseReport report;
  EXPECT_THROW((void)read_points("/no/such/file.mrb", &report), RuntimeError);
}

TEST(RecordFile, BadMagicRejected) {
  const std::string path = temp_path("rf_badmagic.mrb");
  std::ofstream(path, std::ios::binary) << "NOTAMAGICFILE-----------------------------------";
  EXPECT_THROW((void)read_points(path), RuntimeError);
  ParseReport report;
  EXPECT_THROW((void)read_points(path, &report), RuntimeError);
}

TEST(RecordFile, CorruptionDetectedByChecksum) {
  const std::string path = temp_path("rf_corrupt.mrb");
  write_block_store(path, generate(Distribution::kIndependent, 200, 2, 17), 100);
  flip_byte_at(path, static_cast<std::streamoff>(blockfmt::kHeaderBytes) + 64);
  EXPECT_THROW((void)read_points(path), RuntimeError);
}

TEST(RecordFile, TruncationDetected) {
  const std::string src = temp_path("rf_full.mrb");
  const std::string dst = temp_path("rf_truncated.mrb");
  write_block_store(src, generate(Distribution::kIndependent, 200, 2, 19), 100);
  const std::vector<char> bytes = read_bytes(src);
  std::ofstream(dst, std::ios::binary)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 16));
  EXPECT_THROW((void)read_points(dst), RuntimeError);
  ParseReport report;
  EXPECT_THROW((void)read_points(dst, &report), RuntimeError);
}

TEST(RecordFile, LenientReadOfCleanFileIsClean) {
  const PointSet ps = generate(Distribution::kIndependent, 150, 3, 21);
  const std::string path = temp_path("rf_lenient_clean.mrb");
  write_block_store(path, ps, 50);
  ParseReport report;
  EXPECT_EQ(read_points(path, &report), ps);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.rows_read, 150u);
}

TEST(RecordFile, LenientDropsCorruptBlockWhole) {
  const PointSet ps = generate(Distribution::kIndependent, 200, 2, 23);
  const std::string path = temp_path("rf_lenient_corrupt.mrb");
  write_block_store(path, ps, 100);  // 2 blocks of 100
  flip_byte_at(path, static_cast<std::streamoff>(blockfmt::kHeaderBytes) + 64);
  // Strict read still refuses the file...
  EXPECT_THROW((void)read_points(path), RuntimeError);
  // ...while the lenient read drops the bad block and keeps the good one.
  ParseReport report;
  const PointSet loaded = read_points(path, &report);
  ASSERT_EQ(loaded.size(), 100u);
  EXPECT_EQ(loaded.id(0), ps.id(100));  // survivors are the second block
  EXPECT_EQ(report.rows_read, 100u);
  EXPECT_EQ(report.rows_skipped, 100u);
  ASSERT_EQ(report.issues.size(), 1u);
  EXPECT_EQ(report.issues[0].row, 0u);  // issue rows are block indices
  EXPECT_NE(report.issues[0].reason.find("checksum"), std::string::npos);
}

// ---------------------------------------------------------------------------
// DatasetSource: the uniform interface over resident sets, .mrb files and
// streamed CSVs.
// ---------------------------------------------------------------------------

TEST(DatasetSource, PointSetSourceIsResidentAndBlocksCoverEverything) {
  const PointSet ps = generate(Distribution::kIndependent, 250, 3, 43);
  const PointSetSource source(ps);
  EXPECT_EQ(source.dim(), 3u);
  EXPECT_EQ(source.size(), 250u);
  ASSERT_EQ(source.resident(), &ps);  // zero-copy: the legacy fast path
  PointSet reassembled(3);
  std::size_t stat_rows = 0;
  for (std::size_t b = 0; b < source.block_count(); ++b) {
    const BlockStats stats = source.block_stats(b);
    EXPECT_FALSE(stats.has_corners);  // virtual blocks never prune
    stat_rows += stats.rows;
    source.read_block(b, reassembled);
  }
  EXPECT_EQ(stat_rows, ps.size());
  EXPECT_EQ(reassembled, ps);
  EXPECT_EQ(source.materialize(), ps);
}

TEST(DatasetSource, BlockStoreSourceExposesFooterCorners) {
  const PointSet ps = generate(Distribution::kAnticorrelated, 300, 4, 47);
  const std::string path = temp_path("src_store.mrb");
  write_block_store(path, ps, 64);
  const BlockStoreSource source(path);
  EXPECT_EQ(source.resident(), nullptr);
  EXPECT_EQ(source.block_count(), source.store().block_count());
  std::uint64_t bytes = 0;
  for (std::size_t b = 0; b < source.block_count(); ++b) {
    const BlockStats stats = source.block_stats(b);
    ASSERT_TRUE(stats.has_corners);
    EXPECT_EQ(stats.rows, source.store().rows_in_block(b));
    const auto min = source.store().block_min(b);
    EXPECT_TRUE(std::equal(min.begin(), min.end(), stats.min_corner.begin()));
    bytes += stats.bytes;
    source.release_block(b);
  }
  EXPECT_GT(bytes, 0u);
  EXPECT_EQ(source.materialize(), ps);
}

TEST(DatasetSource, SampleIsDeterministicBoundedAndReleased) {
  const PointSet ps = generate(Distribution::kIndependent, 1000, 3, 53);
  const std::string path = temp_path("src_sample.mrb");
  write_block_store(path, ps, 64);
  const BlockStoreSource source(path);
  const PointSet sample = source.sample(100, 0x5a3e);
  EXPECT_EQ(sample.size(), 100u);
  EXPECT_EQ(sample, source.sample(100, 0x5a3e));  // pure function of (target, seed)
  // Every sampled row is a real row of the dataset, bits intact.
  const auto ids = sorted_ids(ps);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), sample.id(i)));
  }
  // target >= size returns everything.
  EXPECT_EQ(source.sample(5000, 1).size(), ps.size());
}

TEST(DatasetSource, CsvSourceStreamsThroughTemporaryBlocks) {
  const PointSet ps = generate(Distribution::kIndependent, 200, 3, 59);
  const std::string csv = temp_path("src_data.csv");
  write_csv_file(csv, ps);
  const CsvSource source(csv, {}, nullptr, /*block_rows=*/32);
  EXPECT_EQ(source.dim(), 3u);
  EXPECT_EQ(source.size(), 200u);
  EXPECT_EQ(source.block_count(), 7u);  // ceil(200 / 32)
  EXPECT_EQ(sorted_ids(source.materialize()), sorted_ids(ps));
}

TEST(DatasetSource, CsvSourceLenientReportsDroppedRows) {
  const std::string csv = temp_path("src_bad.csv");
  {
    std::ofstream out(csv);
    out << "id,a,b\n0,1.0,2.0\n1,not_a_number,3.0\n2,4.0,5.0\n";
  }
  CsvReadOptions options;
  options.lenient = true;
  ParseReport report;
  const CsvSource source(csv, options, &report);
  EXPECT_EQ(source.size(), 2u);
  EXPECT_EQ(report.rows_skipped, 1u);
}

/// This process's staged CSV files in the temp directory.
std::set<std::string> staged_files() {
  const std::string prefix = "mrsky-csv-" + std::to_string(::getpid()) + "-";
  std::set<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::filesystem::temp_directory_path())) {
    const std::string name = entry.path().filename().string();
    if (name.rfind(prefix, 0) == 0) names.insert(name);
  }
  return names;
}

// A CSV wider than a `.mrb` holds fails typed at its first row, before any
// row is staged; the widest one streams.
TEST(DatasetSource, CsvSourceRefusesTooManyColumnsBeforeStaging) {
  const std::string widest = temp_path("src_widest.csv");
  const std::string too_wide = temp_path("src_too_wide.csv");
  write_csv_file(widest, generate(Distribution::kIndependent, 40, blockfmt::kMaxDim, 73));
  write_csv_file(too_wide, generate(Distribution::kIndependent, 40, blockfmt::kMaxDim + 1, 73));
  {
    const CsvSource source(widest);
    EXPECT_EQ(source.dim(), blockfmt::kMaxDim);
    EXPECT_EQ(source.size(), 40u);
  }
  const std::set<std::string> before = staged_files();
  try {
    const CsvSource source(too_wide);
    ADD_FAILURE() << "a " << blockfmt::kMaxDim + 1 << "-column CSV was staged";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("at most 1024 attributes"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(staged_files(), before);
}

// A constructor that throws after its writer opened the staged file leaves
// no file behind: a strict-mode CSV with a bad last row, and a lenient one
// whose every row is dropped.
TEST(DatasetSource, CsvSourceThatThrowsWhileStagingLeavesNoFile) {
  const std::string bad_last = temp_path("src_bad_last.csv");
  const std::string unusable = temp_path("src_unusable.csv");
  {
    std::ofstream out(bad_last);
    out << "a,b\n1.0,2.0\n3.0,4.0\n5.0,oops\n";
  }
  {
    std::ofstream out(unusable);
    out << "a,b\n1.0,oops\nbad,2.0\n";
  }
  const std::set<std::string> before = staged_files();
  try {
    const CsvSource source(bad_last);
    ADD_FAILURE() << "a CSV with a bad last row was staged";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("oops"), std::string::npos) << e.what();
  }
  EXPECT_EQ(staged_files(), before);
  CsvReadOptions lenient;
  lenient.lenient = true;
  ParseReport report;
  try {
    const CsvSource source(unusable, lenient, &report);
    ADD_FAILURE() << "a CSV with no usable row was staged";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("no usable data rows"), std::string::npos) << e.what();
  }
  EXPECT_EQ(staged_files(), before);
}

TEST(DatasetSource, OpenDatasetDispatchesOnExtension) {
  const PointSet ps = generate(Distribution::kIndependent, 120, 2, 61);
  const std::string mrb = temp_path("open_me.mrb");
  const std::string csv = temp_path("open_me.csv");
  write_block_store(mrb, ps, 32);
  write_csv_file(csv, ps);

  const auto from_mrb = open_dataset(mrb);
  EXPECT_EQ(from_mrb->resident(), nullptr);  // stays out of core
  EXPECT_EQ(from_mrb->materialize(), ps);

  const auto from_csv = open_dataset(csv);
  EXPECT_EQ(from_csv->size(), ps.size());
  EXPECT_EQ(sorted_ids(from_csv->materialize()), sorted_ids(ps));
}

// read_points picks the format by extension, like open_dataset, and is
// lenient exactly when given a report.
TEST(DatasetSource, ReadPointsDispatchesOnExtension) {
  const PointSet ps = generate(Distribution::kIndependent, 120, 2, 61);
  const std::string mrb = temp_path("read_me.mrb");
  const std::string csv = temp_path("read_me.csv");
  write_block_store(mrb, ps, 32);
  write_csv_file(csv, ps);
  EXPECT_EQ(read_points(mrb), ps);
  EXPECT_EQ(read_points(csv), ps);  // 17 significant digits round-trip

  const std::string ragged = temp_path("read_me_ragged.csv");
  std::ofstream(ragged) << "a,b\n0.5,0.5\n0.25\n0.75,0.125\n";
  EXPECT_THROW((void)read_points(ragged), InvalidArgument);
  ParseReport report;
  EXPECT_EQ(read_points(ragged, &report).size(), 2u);
  EXPECT_EQ(report.rows_skipped, 1u);
  // A .mrb name is read as a block store, whatever the file holds.
  const std::string csv_named_mrb = temp_path("read_me_csv.mrb");
  std::filesystem::copy_file(csv, csv_named_mrb,
                             std::filesystem::copy_options::overwrite_existing);
  EXPECT_THROW((void)read_points(csv_named_mrb), RuntimeError);
}

}  // namespace
}  // namespace mrsky::data
