#include "src/dataset/io.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "src/common/error.hpp"
#include "src/dataset/generators.hpp"

namespace mrsky::data {
namespace {

TEST(CsvIo, RoundTripWithIdsAndHeader) {
  const PointSet original = generate(Distribution::kIndependent, 50, 4, 42);
  std::stringstream buffer;
  write_csv(buffer, original);
  const PointSet loaded = read_csv(buffer);
  EXPECT_EQ(loaded, original);
}

TEST(CsvIo, RoundTripWithoutHeader) {
  const PointSet original = generate(Distribution::kCorrelated, 20, 3, 1);
  std::stringstream buffer;
  CsvWriteOptions options;
  options.with_header = false;
  options.with_ids = false;
  write_csv(buffer, original, options);
  const PointSet loaded = read_csv(buffer);
  EXPECT_EQ(loaded.size(), original.size());
  EXPECT_EQ(loaded.dim(), original.dim());
  for (std::size_t i = 0; i < loaded.size(); ++i) {
    EXPECT_EQ(loaded.id(i), static_cast<PointId>(i));  // sequential ids assigned
    for (std::size_t a = 0; a < loaded.dim(); ++a) {
      EXPECT_NEAR(loaded.at(i, a), original.at(i, a), 1e-9);
    }
  }
}

TEST(CsvIo, HeaderWithoutIdColumn) {
  std::stringstream buffer("x,y\n1.5,2.5\n3.5,4.5\n");
  const PointSet ps = read_csv(buffer);
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps.dim(), 2u);
  EXPECT_DOUBLE_EQ(ps.at(1, 1), 4.5);
  EXPECT_EQ(ps.id(0), 0u);
}

TEST(CsvIo, IdColumnDetectedByName) {
  std::stringstream buffer("id,x\n7,1.0\n9,2.0\n");
  const PointSet ps = read_csv(buffer);
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps.dim(), 1u);
  EXPECT_EQ(ps.id(0), 7u);
  EXPECT_EQ(ps.id(1), 9u);
}

TEST(CsvIo, SkipsBlankLines) {
  std::stringstream buffer("1.0,2.0\n\n3.0,4.0\n\n");
  const PointSet ps = read_csv(buffer);
  EXPECT_EQ(ps.size(), 2u);
}

TEST(CsvIo, HandlesWindowsLineEndings) {
  std::stringstream buffer("1.0,2.0\r\n3.0,4.0\r\n");
  const PointSet ps = read_csv(buffer);
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_DOUBLE_EQ(ps.at(1, 1), 4.0);
}

TEST(CsvIo, RaggedRowThrows) {
  std::stringstream buffer("1.0,2.0\n3.0\n");
  EXPECT_THROW(read_csv(buffer), InvalidArgument);
}

TEST(CsvIo, GarbageCellThrows) {
  std::stringstream buffer("1.0,2.0\n3.0,oops\n");
  EXPECT_THROW(read_csv(buffer), InvalidArgument);
}

TEST(CsvIo, EmptyInputThrows) {
  std::stringstream buffer("");
  EXPECT_THROW(read_csv(buffer), InvalidArgument);
}

TEST(CsvIo, HeaderOnlyThrows) {
  std::stringstream buffer("x,y\n");
  EXPECT_THROW(read_csv(buffer), InvalidArgument);
}

TEST(CsvIo, FileRoundTrip) {
  const PointSet original = generate(Distribution::kIndependent, 10, 2, 5);
  const std::string path = testing::TempDir() + "/mrsky_io_test.csv";
  write_csv_file(path, original);
  const PointSet loaded = read_csv_file(path);
  EXPECT_EQ(loaded, original);
}

TEST(CsvIo, MissingFileThrows) {
  EXPECT_THROW(read_csv_file("/nonexistent/path/file.csv"), RuntimeError);
}

TEST(CsvIo, UnwritablePathThrows) {
  const PointSet ps(1, {1.0});
  EXPECT_THROW(write_csv_file("/nonexistent/dir/file.csv", ps), RuntimeError);
}

TEST(CsvIo, LenientDropsRaggedAndGarbageRows) {
  std::stringstream buffer("1.0,2.0\n3.0\n5.0,oops\n7.0,8.0\n");
  CsvReadOptions options;
  options.lenient = true;
  ParseReport report;
  const PointSet ps = read_csv(buffer, options, &report);
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_DOUBLE_EQ(ps.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(ps.at(1, 1), 8.0);
  EXPECT_EQ(report.rows_read, 2u);
  EXPECT_EQ(report.rows_skipped, 2u);
  ASSERT_EQ(report.issues.size(), 2u);
  EXPECT_FALSE(report.clean());
}

TEST(CsvIo, LenientDropsNonFiniteRows) {
  std::stringstream buffer("1.0,2.0\nnan,3.0\n4.0,inf\n5.0,6.0\n");
  CsvReadOptions options;
  options.lenient = true;
  ParseReport report;
  const PointSet ps = read_csv(buffer, options, &report);
  EXPECT_EQ(ps.size(), 2u);
  EXPECT_EQ(report.rows_skipped, 2u);
}

TEST(CsvIo, LenientKeepsNonFiniteWhenNotRequired) {
  std::stringstream buffer("1.0,2.0\nnan,3.0\n");
  CsvReadOptions options;
  options.lenient = true;
  options.require_finite = false;
  const PointSet ps = read_csv(buffer, options);
  EXPECT_EQ(ps.size(), 2u);
}

TEST(CsvIo, LenientNonNegativeFilter) {
  std::stringstream buffer("1.0,2.0\n-1.0,3.0\n4.0,5.0\n");
  CsvReadOptions options;
  options.lenient = true;
  options.require_non_negative = true;
  ParseReport report;
  const PointSet ps = read_csv(buffer, options, &report);
  EXPECT_EQ(ps.size(), 2u);
  EXPECT_EQ(report.rows_skipped, 1u);
}

TEST(CsvIo, LenientAllRowsBadStillThrows) {
  // Even lenient mode refuses to return an empty point set.
  std::stringstream buffer("oops,nope\nalso,bad\n");
  CsvReadOptions options;
  options.lenient = true;
  ParseReport report;
  EXPECT_THROW((void)read_csv(buffer, options, &report), InvalidArgument);
}

TEST(CsvIo, StrictModeIgnoresReportAndThrows) {
  // A non-null report does not imply leniency: strictness is the option.
  std::stringstream buffer("1.0,2.0\n3.0\n");
  ParseReport report;
  EXPECT_THROW((void)read_csv(buffer, {}, &report), InvalidArgument);
}

// CSV ids are PointIds: whole numbers in [0, 2^32 - 1]. `-1` used to load
// as 4294967295 through an undefined double-to-integer cast.
TEST(CsvIo, IdOutsidePointIdRangeFailsTyped) {
  for (const char* id : {"-1", "2.5", "nan", "inf", "1e20", "4294967296"}) {
    std::stringstream buffer(std::string("id,x\n1,0.5\n") + id + ",0.25\n");
    try {
      (void)read_csv(buffer);
      FAIL() << "strict read accepted id " << id;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("CSV row 1: bad id: ") + id),
                std::string::npos)
          << e.what();
    }
    std::stringstream lenient_buffer(std::string("id,x\n1,0.5\n") + id + ",0.25\n");
    CsvReadOptions options;
    options.lenient = true;
    ParseReport report;
    const PointSet ps = read_csv(lenient_buffer, options, &report);
    EXPECT_EQ(ps.size(), 1u);
    ASSERT_EQ(report.issues.size(), 1u);
    EXPECT_EQ(report.issues[0].row, 1u);
    EXPECT_EQ(report.issues[0].reason, std::string("bad id: ") + id);
  }
  std::stringstream buffer("id,x\n4294967295,0.5\n7.0,0.25\n");
  const PointSet ps = read_csv(buffer);
  ASSERT_EQ(ps.size(), 2u);
  EXPECT_EQ(ps.id(0), 4294967295u);
  EXPECT_EQ(ps.id(1), 7u);
}

TEST(CsvIo, ParseReportCapsRecordedIssues) {
  std::stringstream buffer;
  buffer << "1.0,2.0\n";
  for (int i = 0; i < 50; ++i) buffer << "bad\n";
  CsvReadOptions options;
  options.lenient = true;
  ParseReport report;
  const PointSet ps = read_csv(buffer, options, &report);
  EXPECT_EQ(ps.size(), 1u);
  EXPECT_EQ(report.rows_skipped, 50u);
  EXPECT_EQ(report.issues.size(), ParseReport::kMaxRecordedIssues);
}

}  // namespace
}  // namespace mrsky::data
