// Differential fuzz of the chunked CSV reader (read_csv, strict and lenient
// under every CsvReadOptions combination, and CsvSource's staging) against a
// reference kept here: the getline/split_commas reader it replaced, plus the
// PointId rule for the id column. Both must agree on every coordinate bit,
// id, ParseReport count and issue, and on the type and text of any error.
// Inputs are seeded: generated CSVs (headers, id columns, \r\n, blank lines,
// empty cells, signs and spaces, NaN/±inf, a missing final newline) put
// through random byte mutations, files spanning several read chunks, lines
// longer than a chunk, and line ends placed on chunk boundaries.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/error.hpp"
#include "src/common/rng.hpp"
#include "src/dataset/io.hpp"
#include "src/dataset/source.hpp"

namespace mrsky::data {
namespace {

constexpr std::size_t kChunk = CsvRowReader::kChunkBytes;

/// What one read produced: the rows, or the error it threw, plus the report
/// as the read left it (a strict throw leaves the counts of the rows before).
struct Outcome {
  enum class Kind { kRows, kInvalidArgument, kRuntimeError, kOther };
  Kind kind = Kind::kRows;
  std::string error;  ///< the message after the source-location prefix
  std::size_t dim = 0;
  std::vector<std::uint64_t> bits;  ///< coordinate bits, row-major
  std::vector<PointId> ids;
  ParseReport report;
};

/// Strips "file:line: requirement `expr` failed: " from a thrown message.
std::string user_text(const std::string& what) {
  const std::string marker = "` failed: ";
  const std::size_t at = what.find(marker);
  return at == std::string::npos ? what : what.substr(at + marker.size());
}

void take_rows(const PointSet& ps, Outcome& out) {
  out.dim = ps.dim();
  for (const double v : ps.raw()) out.bits.push_back(std::bit_cast<std::uint64_t>(v));
  out.ids.assign(ps.ids().begin(), ps.ids().end());
}

// ---- Reference reader ------------------------------------------------------

std::vector<std::string> split_commas(const std::string& line) {
  std::vector<std::string> cells;
  std::size_t start = 0;
  while (start <= line.size()) {
    std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) comma = line.size();
    cells.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
  return cells;
}

bool parse_double(const std::string& s, double& out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

Outcome reference_read(const std::string& text, const CsvReadOptions& options) {
  Outcome out;
  const auto fail = [&out](const std::string& message) {
    out.kind = Outcome::Kind::kInvalidArgument;
    out.error = message.c_str();  // as what() renders it: up to a NUL byte
    out.dim = 0;
    out.bits.clear();
    out.ids.clear();
    return out;
  };
  std::istringstream is(text);
  std::string line;
  bool first = true;
  bool has_header = false;
  bool has_id = false;
  std::vector<std::string> header;
  std::optional<std::vector<std::string>> first_row;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    auto cells = split_commas(line);
    if (first) {
      first = false;
      double probe = 0.0;
      if (!parse_double(cells[0], probe)) {
        has_header = true;
        has_id = (cells[0] == "id");
        header = std::move(cells);
        continue;
      }
    }
    first_row = std::move(cells);
    break;
  }
  if (!first_row) return fail("CSV contains no data rows");
  const std::size_t width = first_row->size();
  if (has_header && header.size() != width) {
    return fail("CSV header width differs from data width");
  }
  out.dim = has_id ? width - 1 : width;
  if (out.dim < 1) return fail("CSV rows must contain at least one attribute");

  std::size_t r = 0;
  std::vector<double> row(out.dim);
  // One row: true = kept, false = dropped, nullopt = a strict read throws.
  const auto parse_row = [&](const std::vector<std::string>& cells) -> std::optional<bool> {
    const std::size_t index = r++;
    std::string defect;
    if (cells.size() != width) {
      defect = "expected " + std::to_string(width) + " cells, got " +
               std::to_string(cells.size());
    }
    std::size_t c = 0;
    PointId id = static_cast<PointId>(index);
    if (defect.empty() && has_id) {
      double v = 0.0;
      if (!parse_double(cells[0], v) || !(v >= 0.0 && v <= 4294967295.0) ||
          v != std::floor(v)) {
        defect = "bad id: " + cells[0];
      } else {
        id = static_cast<PointId>(v);
      }
      c = 1;
    }
    for (std::size_t a = 0; defect.empty() && c < width; ++c, ++a) {
      double v = 0.0;
      if (!parse_double(cells[c], v)) {
        defect = "bad number: " + cells[c];
      } else if (options.lenient && options.require_finite && !std::isfinite(v)) {
        defect = "non-finite value: " + cells[c];
      } else if (options.lenient && options.require_non_negative && v < 0.0) {
        defect = "negative value: " + cells[c];
      }
      row[a] = v;
    }
    if (!defect.empty()) {
      if (!options.lenient) {
        out.error = "CSV row " + std::to_string(index) + ": " + defect;
        return std::nullopt;
      }
      out.report.add_issue(index, defect);
      return false;
    }
    ++out.report.rows_read;
    out.ids.push_back(id);
    for (const double v : row) out.bits.push_back(std::bit_cast<std::uint64_t>(v));
    return true;
  };

  if (!parse_row(*first_row).has_value()) return fail(out.error);
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (!parse_row(split_commas(line)).has_value()) return fail(out.error);
  }
  if (out.ids.empty()) return fail("CSV contains no usable data rows");
  return out;
}

// ---- The readers under test ------------------------------------------------

template <typename Read>
Outcome capture(Read read) {
  Outcome out;
  try {
    read(out);
  } catch (const InvalidArgument& e) {
    out = Outcome{Outcome::Kind::kInvalidArgument, user_text(e.what()), 0, {}, {}, out.report};
  } catch (const RuntimeError& e) {
    out = Outcome{Outcome::Kind::kRuntimeError, e.what(), 0, {}, {}, out.report};
  } catch (const std::exception& e) {
    out = Outcome{Outcome::Kind::kOther, e.what(), 0, {}, {}, out.report};
  }
  return out;
}

Outcome run_read_csv(const std::string& text, const CsvReadOptions& options) {
  return capture([&](Outcome& out) {
    std::istringstream is(text);
    take_rows(read_csv(is, options, &out.report), out);
  });
}

Outcome run_csv_source(const std::string& text, const CsvReadOptions& options) {
  // One file per test: ctest runs the tests of this suite side by side.
  const std::string path = testing::TempDir() + "/mrsky_csv_fuzz_" +
                           testing::UnitTest::GetInstance()->current_test_info()->name() +
                           ".csv";
  {
    std::ofstream file(path, std::ios::binary);
    file << text;
  }
  Outcome out = capture([&](Outcome& o) {
    const CsvSource source(path, options, &o.report);
    take_rows(source.materialize(), o);
  });
  std::remove(path.c_str());
  return out;
}

/// Printable head of an input for failure messages.
std::string excerpt(const std::string& text) {
  std::string shown;
  for (const char c : text.substr(0, 160)) {
    if (c == '\n') {
      shown += "\\n";
    } else if (c == '\r') {
      shown += "\\r";
    } else if (static_cast<unsigned char>(c) < 0x20 || static_cast<unsigned char>(c) >= 0x7F) {
      shown += "\\x" + std::to_string(static_cast<unsigned char>(c));
    } else {
      shown += c;
    }
  }
  return shown + (text.size() > 160 ? "... (" + std::to_string(text.size()) + " bytes)" : "");
}

bool same(const Outcome& got, const Outcome& want) {
  if (got.kind != want.kind || got.error != want.error || got.dim != want.dim ||
      got.bits != want.bits || got.ids != want.ids ||
      got.report.rows_read != want.report.rows_read ||
      got.report.rows_skipped != want.report.rows_skipped ||
      got.report.issues.size() != want.report.issues.size()) {
    return false;
  }
  for (std::size_t i = 0; i < got.report.issues.size(); ++i) {
    if (got.report.issues[i].row != want.report.issues[i].row ||
        got.report.issues[i].reason != want.report.issues[i].reason) {
      return false;
    }
  }
  return true;
}

std::string describe(const Outcome& o) {
  static const char* const kKinds[] = {"rows", "InvalidArgument", "RuntimeError", "other"};
  std::string s = std::string(kKinds[static_cast<int>(o.kind)]) + " dim=" +
                  std::to_string(o.dim) + " rows=" + std::to_string(o.ids.size()) +
                  " read=" + std::to_string(o.report.rows_read) +
                  " skipped=" + std::to_string(o.report.rows_skipped) +
                  " issues=" + std::to_string(o.report.issues.size());
  if (!o.error.empty()) s += " error='" + excerpt(o.error) + "'";
  return s;
}

/// The option sets every input is read under: strict, and lenient with each
/// combination of the two lenient-only filters.
std::vector<CsvReadOptions> option_sets() {
  std::vector<CsvReadOptions> sets(1);
  for (const bool finite : {false, true}) {
    for (const bool non_negative : {false, true}) {
      CsvReadOptions o;
      o.lenient = true;
      o.require_finite = finite;
      o.require_non_negative = non_negative;
      sets.push_back(o);
    }
  }
  return sets;
}

/// The reference's outcomes over a corpus, so a test can show its reach.
struct Tally {
  std::size_t rows = 0;
  std::size_t thrown = 0;
  std::size_t skipped = 0;
};

/// Reads `text` through read_csv under every option set (and through
/// CsvSource when `staged`); true when all agree with the reference.
bool check_input(const std::string& text, bool staged, Tally& tally) {
  for (const CsvReadOptions& options : option_sets()) {
    const Outcome want = reference_read(text, options);
    (want.kind == Outcome::Kind::kRows ? tally.rows : tally.thrown) += 1;
    tally.skipped += want.report.rows_skipped;
    const Outcome got = run_read_csv(text, options);
    if (!same(got, want)) {
      ADD_FAILURE() << "read_csv (lenient=" << options.lenient
                    << " finite=" << options.require_finite
                    << " non_negative=" << options.require_non_negative << ") differs on '"
                    << excerpt(text) << "'\n  got:  " << describe(got)
                    << "\n  want: " << describe(want);
      return false;
    }
    if (staged) {
      const Outcome source = run_csv_source(text, options);
      if (!same(source, want)) {
        ADD_FAILURE() << "CsvSource (lenient=" << options.lenient << ") differs on '"
                      << excerpt(text) << "'\n  got:  " << describe(source)
                      << "\n  want: " << describe(want);
        return false;
      }
    }
  }
  return true;
}

// ---- Input generation ------------------------------------------------------

std::string format_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string random_cell(common::Rng& rng, bool defects) {
  static const char* const kSpecial[] = {
      "nan", "-nan", "NaN", "inf", "-inf", "infinity", "-0", "0", "-0.5", "+1.5",
      " 1.5", "1.5 ", "", "1e400", "1e-400", "0x1p3", "oops", "1e", ".5", "5."};
  const std::size_t roll = rng.uniform_index(defects ? 100 : 85);
  if (roll < 70) return format_double(rng.uniform());
  if (roll < 80) return format_double(rng.uniform(-1.0, 1.0));
  if (roll < 85) return std::to_string(rng.uniform_index(1000));
  return kSpecial[rng.uniform_index(std::size(kSpecial))];
}

std::string random_id(common::Rng& rng, std::size_t row, bool defects) {
  static const char* const kSpecial[] = {"-1",  "2.5",        "nan",        "inf", "1e20",
                                         "-0",  "4294967295", "4294967296", "7.0", "1e3",
                                         "",    "+3",         " 4",         "0x10"};
  if (!defects || rng.uniform_index(10) < 8) return std::to_string(row * 3 % 1000);
  return kSpecial[rng.uniform_index(std::size(kSpecial))];
}

/// A CSV of `rows` rows in one of the shapes the reader accepts, with
/// occasional defective cells and rows when `defects`; `mutations` random
/// byte edits follow.
std::string generate_csv(common::Rng& rng, std::size_t rows, bool defects,
                         std::size_t mutations) {
  const std::size_t dim = 1 + rng.uniform_index(4);
  const std::size_t header = rng.uniform_index(3);  // 0 none, 1 names, 2 "id" + names
  const bool crlf = rng.uniform_index(3) == 0;
  const std::string eol = crlf ? "\r\n" : "\n";
  std::string text;
  if (header > 0) {
    text += header == 2 ? "id" : "x";
    for (std::size_t a = header == 2 ? 0 : 1; a < dim; ++a) text += ",attr" + std::to_string(a);
    if (rng.uniform_index(20) == 0) text += ",extra";
    text += eol;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    if (rng.uniform_index(15) == 0) text += rng.uniform_index(2) == 0 ? "\n" : "\r\n";
    std::size_t cells = dim;
    if (defects && rng.uniform_index(25) == 0) cells = rng.uniform_index(dim + 2);  // ragged
    std::string line;
    if (header == 2) line += random_id(rng, r, defects);
    for (std::size_t a = 0; a < cells; ++a) {
      if (a > 0 || header == 2) line += ',';
      line += random_cell(rng, defects);
    }
    text += line;
    if (r + 1 < rows || rng.uniform_index(4) != 0) {  // sometimes no final newline
      text += rng.uniform_index(30) == 0 ? (crlf ? "\n" : "\r\n") : eol;
    }
  }
  static const char kBytes[] = {',', '\n', '\r', ' ', '+', '-', '.', 'e', 'n', '0', '7', '\0'};
  for (std::size_t m = 0; m < mutations && !text.empty(); ++m) {
    const std::size_t at = rng.uniform_index(text.size());
    const char c = rng.uniform_index(4) == 0 ? static_cast<char>(rng.uniform_index(256))
                                             : kBytes[rng.uniform_index(sizeof kBytes)];
    switch (rng.uniform_index(4)) {
      case 0: text[at] = c; break;
      case 1: text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), c); break;
      case 2: text.erase(at, 1); break;
      default: text.resize(at); break;
    }
  }
  return text;
}

TEST(CsvFuzz, SmallMutatedInputsMatchTheReference) {
  common::Rng rng(0xC5F0001);
  Tally tally;
  std::size_t failures = 0;
  for (std::size_t iter = 0; iter < 1500 && failures < 5; ++iter) {
    const std::uint64_t mutations = rng.uniform_index(3) == 0 ? 0 : 1 + rng.uniform_index(3);
    const std::string text = generate_csv(rng, rng.uniform_index(12), true, mutations);
    if (!check_input(text, iter % 10 == 0, tally)) ++failures;
  }
  // The corpus reaches every outcome: rows kept, rows dropped, reads thrown.
  EXPECT_GT(tally.rows, 1000u);
  EXPECT_GT(tally.thrown, 1000u);
  EXPECT_GT(tally.skipped, 500u);
}

TEST(CsvFuzz, FilesSpanningSeveralChunksMatchTheReference) {
  common::Rng rng(0xC5F0002);
  Tally tally;
  for (std::size_t iter = 0; iter < 8; ++iter) {
    std::string text;
    while (text.size() <= 2 * kChunk) {
      // Half the files are clean, so strict reads also cross every chunk.
      const bool defects = iter % 2 == 1;
      text = generate_csv(rng, 6000 + rng.uniform_index(6000), defects, defects ? iter : 0);
    }
    if (!check_input(text, iter % 2 == 0, tally)) break;
  }
  EXPECT_GE(tally.rows, 4u * option_sets().size());  // every clean file, every option set
}

TEST(CsvFuzz, LinesLongerThanAChunkMatchTheReference) {
  Tally tally;
  // A cell of more than a chunk of digits, before and after ordinary rows.
  const std::string digits = "0." + std::string(kChunk + 123, '3');
  EXPECT_TRUE(check_input("x,y\n1,2\n" + digits + ",5\n3,4\n", true, tally));
  EXPECT_TRUE(check_input(digits + ",5\r\n3,4", true, tally));
  // A bad cell longer than a chunk: its whole text lands in the issue.
  EXPECT_TRUE(check_input("1,2\n" + std::string(2 * kChunk + 5, 'z') + ",1\n3,4\n", true, tally));
  // A header and rows wider than a chunk, of 1,000 cells (the widest a
  // staged .mrb takes is 1,024), each with 50 digits past %.17g.
  const std::size_t wide = 1000;
  std::string text = "c0";
  for (std::size_t a = 1; a < wide; ++a) text += ",c" + std::to_string(a);
  text += "\n";
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t a = 0; a < wide; ++a) {
      if (a > 0) text += ',';
      text += format_double(1.0 + static_cast<double>(a + r) / 7.0) + std::string(50, '7');
    }
    text += "\n";
  }
  ASSERT_GT(text.size(), 3 * kChunk);  // each row is longer than a chunk
  EXPECT_TRUE(check_input(text, true, tally));
  EXPECT_GT(tally.rows, 0u);
}

TEST(CsvFuzz, LineEndsOnChunkBoundariesMatchTheReference) {
  Tally tally;
  // The first read ends at byte kChunk. Put the "\r\n" that ends a row on,
  // before and after that boundary, then cut the same input to exactly one
  // chunk with no final newline.
  for (std::size_t cr = kChunk - 4; cr <= kChunk + 1; ++cr) {
    std::string text = "x,y\n";
    while (text.size() + 24 < cr) text += "0.25,0.75\n";
    while (text.size() + 2 < cr) text += '1';  // one long first cell
    text += ",2\r\n\n3,4";
    EXPECT_TRUE(check_input(text, cr % 2 == 0, tally)) << "\\r at " << cr;
    text.resize(kChunk);
    EXPECT_TRUE(check_input(text, false, tally)) << "cut at kChunk, \\r at " << cr;
  }
  EXPECT_GT(tally.rows, 0u);
}

}  // namespace
}  // namespace mrsky::data
