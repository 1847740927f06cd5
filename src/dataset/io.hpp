// CSV persistence for point sets, so experiments can be re-run against a
// fixed on-disk dataset (or against the real QWS file if the user has one).
//
// Format: optional header line, then one row per point. If the first column
// is named "id" (or `with_ids` is set on write), it carries the PointId, a
// whole number in [0, 2^32 - 1] (data::point_id_from); otherwise ids are
// assigned sequentially on load.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/dataset/parse_report.hpp"
#include "src/dataset/point_set.hpp"

namespace mrsky::data {

struct CsvWriteOptions {
  bool with_header = true;
  bool with_ids = true;
  int precision = 17;  ///< max_digits10: doubles round-trip exactly
};

/// Writes `ps` to `os`. Throws mrsky::RuntimeError on stream failure.
void write_csv(std::ostream& os, const PointSet& ps, const CsvWriteOptions& options = {});
void write_csv_file(const std::string& path, const PointSet& ps,
                    const CsvWriteOptions& options = {});

struct CsvReadOptions {
  /// Strict (default): throw on the first ragged row or unparsable cell.
  /// Lenient: drop such rows and account for them in the ParseReport —
  /// the input-layer counterpart of the engine's skip-bad-records mode.
  bool lenient = false;
  /// Lenient mode only: also drop rows containing NaN or infinity.
  bool require_finite = true;
  /// Lenient mode only: also drop rows with negative attributes (MR-Angle's
  /// hyperspherical transform requires the non-negative orthant).
  bool require_non_negative = false;
};

/// Streaming row-at-a-time CSV reader — the ingest path that never holds the
/// file in memory. It reads the stream in chunks of kChunkBytes into one
/// reused buffer, finds lines with memchr and parses each cell in place with
/// std::from_chars, so a row costs no allocation; the buffer grows only for a
/// line longer than itself, and a reader never holds more than one chunk plus
/// its longest line. Construction consumes lines up to and including the
/// first data row (establishing header, id column and width; throws "CSV
/// contains no data rows" if there are none); next() then yields one usable
/// row per call. Strict/lenient semantics, defect messages and ParseReport
/// accounting are identical to read_csv, which is a thin loop over this class.
class CsvRowReader {
 public:
  /// Bytes read from the stream per refill (a constant, not a tuning knob).
  static constexpr std::size_t kChunkBytes = std::size_t{64} << 10;

  CsvRowReader(std::istream& is, const CsvReadOptions& options = {},
               ParseReport* report = nullptr);

  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }
  [[nodiscard]] bool has_id_column() const noexcept { return has_id_column_; }

  /// Fills `coords` (size dim()) and `id` with the next usable row; false at
  /// end of input. Strict mode throws on the first defective row; lenient
  /// mode records the defect and keeps scanning.
  bool next(PointId& id, std::span<double> coords);

 private:
  /// Views the next non-empty line (one trailing '\r' dropped) in the
  /// buffer; valid until the following call. False at end of input.
  bool next_line(std::string_view& line);
  /// Moves the unconsumed tail to the buffer's front and reads one chunk.
  void refill();
  bool parse_row(std::string_view line, PointId& id, std::span<double> coords);

  std::istream& is_;
  CsvReadOptions options_;
  ParseReport* report_;
  ParseReport local_report_;
  std::vector<char> buffer_;
  std::size_t begin_ = 0;  ///< first unconsumed byte of buffer_
  std::size_t end_ = 0;    ///< one past the last byte read into buffer_
  bool eof_ = false;       ///< the stream has no bytes past end_
  std::size_t dim_ = 0;
  std::size_t width_ = 0;
  bool has_id_column_ = false;
  std::size_t data_row_ = 0;  ///< index of the next data row (for messages)
};

/// Reads a point set. Detects a header (any non-numeric first line) and an
/// "id" first column automatically. Throws on ragged rows or parse errors
/// unless `options.lenient`; with a non-null `report`, fills in what was
/// accepted and dropped.
[[nodiscard]] PointSet read_csv(std::istream& is, const CsvReadOptions& options = {},
                                ParseReport* report = nullptr);
[[nodiscard]] PointSet read_csv_file(const std::string& path,
                                     const CsvReadOptions& options = {},
                                     ParseReport* report = nullptr);

}  // namespace mrsky::data
