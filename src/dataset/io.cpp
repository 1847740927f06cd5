#include "src/dataset/io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <optional>
#include <vector>

#include "src/common/error.hpp"

namespace mrsky::data {

namespace {

bool parse_double(std::string_view s, double& out) {
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

/// The cell starting at `pos` (up to the next comma or the line's end);
/// advances `pos` past the comma, or to npos after the last cell.
std::string_view take_cell(std::string_view line, std::size_t& pos) {
  const std::size_t start = pos;
  const void* comma = std::memchr(line.data() + start, ',', line.size() - start);
  if (comma == nullptr) {
    pos = std::string_view::npos;
    return line.substr(start);
  }
  const auto stop = static_cast<std::size_t>(static_cast<const char*>(comma) - line.data());
  pos = stop + 1;
  return line.substr(start, stop - start);
}

std::size_t count_cells(std::string_view line) {
  std::size_t cells = 0;
  for (std::size_t pos = 0; pos != std::string_view::npos; ++cells) (void)take_cell(line, pos);
  return cells;
}

}  // namespace

void write_csv(std::ostream& os, const PointSet& ps, const CsvWriteOptions& options) {
  if (options.with_header) {
    if (options.with_ids) os << "id";
    for (std::size_t a = 0; a < ps.dim(); ++a) {
      if (a > 0 || options.with_ids) os << ",";
      os << "attr" << a;
    }
    os << "\n";
  }
  os << std::setprecision(options.precision);
  for (std::size_t i = 0; i < ps.size(); ++i) {
    if (options.with_ids) os << ps.id(i);
    for (std::size_t a = 0; a < ps.dim(); ++a) {
      if (a > 0 || options.with_ids) os << ",";
      os << ps.at(i, a);
    }
    os << "\n";
  }
  if (!os) MRSKY_FAIL("CSV write failed");
}

void write_csv_file(const std::string& path, const PointSet& ps, const CsvWriteOptions& options) {
  std::ofstream file(path);
  if (!file) MRSKY_FAIL("cannot open for writing: " + path);
  write_csv(file, ps, options);
}

// ---- CsvRowReader ----------------------------------------------------------

CsvRowReader::CsvRowReader(std::istream& is, const CsvReadOptions& options,
                           ParseReport* report)
    : is_(is), options_(options), report_(report), buffer_(kChunkBytes) {
  // Consume lines up to and including the first data row: header detection
  // needs the first line, width/dim need the first data row. The data row is
  // left unconsumed in the buffer for the first next() call, so it runs
  // through the same defect handling as every other row.
  std::string_view line;
  bool has_row = next_line(line);
  std::size_t header_width = 0;
  if (has_row) {
    std::size_t pos = 0;
    const std::string_view first_cell = take_cell(line, pos);
    double probe = 0.0;
    if (!parse_double(first_cell, probe)) {
      header_width = count_cells(line);
      has_id_column_ = (first_cell == "id");
      has_row = next_line(line);
    }
  }
  MRSKY_REQUIRE(has_row, "CSV contains no data rows");
  begin_ = static_cast<std::size_t>(line.data() - buffer_.data());
  width_ = count_cells(line);
  if (header_width > 0) {
    MRSKY_REQUIRE(header_width == width_, "CSV header width differs from data width");
  }
  dim_ = has_id_column_ ? width_ - 1 : width_;
  MRSKY_REQUIRE(dim_ >= 1, "CSV rows must contain at least one attribute");
}

void CsvRowReader::refill() {
  const std::size_t kept = end_ - begin_;
  std::memmove(buffer_.data(), buffer_.data() + begin_, kept);
  begin_ = 0;
  end_ = kept;
  // Only a line longer than the whole buffer makes it grow, by one chunk.
  if (kept == buffer_.size()) buffer_.resize(kept + kChunkBytes);
  const std::size_t want = std::min(kChunkBytes, buffer_.size() - kept);
  is_.read(buffer_.data() + kept, static_cast<std::streamsize>(want));
  end_ += static_cast<std::size_t>(is_.gcount());
  eof_ = !is_;
}

bool CsvRowReader::next_line(std::string_view& line) {
  std::size_t scan = begin_;  // bytes in [begin_, scan) hold no '\n'
  for (;;) {
    const char* base = buffer_.data();
    if (const void* nl = std::memchr(base + scan, '\n', end_ - scan); nl != nullptr) {
      const auto stop = static_cast<std::size_t>(static_cast<const char*>(nl) - base);
      line = std::string_view(base + begin_, stop - begin_);
      begin_ = stop + 1;
    } else if (!eof_) {
      scan = end_ - begin_;
      refill();
      continue;
    } else if (begin_ < end_) {  // a last line without '\n'
      line = std::string_view(base + begin_, end_ - begin_);
      begin_ = end_;
    } else {
      return false;
    }
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (!line.empty()) return true;
    scan = begin_;
  }
}

bool CsvRowReader::parse_row(std::string_view line, PointId& id, std::span<double> coords) {
  const std::size_t r = data_row_++;
  // In strict mode any defect aborts the read; in lenient mode the row is
  // dropped and the report keeps the cause. A wrong cell count outranks any
  // bad cell, so the scan counts every cell but parses only while clean.
  ParseReport& rep = report_ != nullptr ? *report_ : local_report_;
  std::string defect;
  id = static_cast<PointId>(r);
  std::size_t cells = 0;
  for (std::size_t pos = 0; pos != std::string_view::npos; ++cells) {
    const std::string_view cell = take_cell(line, pos);
    if (!defect.empty() || cells >= width_) continue;
    double v = 0.0;
    const bool parsed = parse_double(cell, v);
    if (has_id_column_ && cells == 0) {
      const std::optional<PointId> checked = parsed ? point_id_from(v) : std::nullopt;
      if (checked.has_value()) {
        id = *checked;
      } else {
        defect = "bad id: " + std::string(cell);
      }
      continue;
    }
    if (!parsed) {
      defect = "bad number: " + std::string(cell);
    } else if (options_.lenient && options_.require_finite && !std::isfinite(v)) {
      defect = "non-finite value: " + std::string(cell);
    } else if (options_.lenient && options_.require_non_negative && v < 0.0) {
      defect = "negative value: " + std::string(cell);
    }
    coords[cells - (has_id_column_ ? 1 : 0)] = v;
  }
  if (cells != width_) {
    defect = "expected " + std::to_string(width_) + " cells, got " + std::to_string(cells);
  }
  if (!defect.empty()) {
    MRSKY_REQUIRE(options_.lenient, "CSV row " + std::to_string(r) + ": " + defect);
    rep.add_issue(r, std::move(defect));
    return false;
  }
  ++rep.rows_read;
  return true;
}

bool CsvRowReader::next(PointId& id, std::span<double> coords) {
  MRSKY_REQUIRE(coords.size() == dim_, "coordinate buffer size must equal dim");
  std::string_view line;
  while (next_line(line)) {
    if (parse_row(line, id, coords)) return true;
  }
  return false;
}

PointSet read_csv(std::istream& is, const CsvReadOptions& options, ParseReport* report) {
  CsvRowReader reader(is, options, report);
  const std::size_t dim = reader.dim();
  PointSet out(dim);
  // Rows parse straight into a flat slab of about 64k values, whatever the
  // width, that lands in the PointSet one append_rows call at a time.
  constexpr std::size_t kFlushValues = std::size_t{1} << 16;
  const std::size_t flush_rows = std::max<std::size_t>(1, kFlushValues / dim);
  std::vector<double> values(flush_rows * dim);
  std::vector<PointId> ids(flush_rows);
  std::size_t rows = 0;
  while (reader.next(ids[rows], std::span<double>(values).subspan(rows * dim, dim))) {
    if (++rows == flush_rows) {
      out.append_rows(values, ids);
      rows = 0;
    }
  }
  out.append_rows(std::span<const double>(values).first(rows * dim),
                  std::span<const PointId>(ids).first(rows));
  MRSKY_REQUIRE(!out.empty(), "CSV contains no usable data rows");
  return out;
}

PointSet read_csv_file(const std::string& path, const CsvReadOptions& options,
                       ParseReport* report) {
  std::ifstream file(path);
  if (!file) MRSKY_FAIL("cannot open for reading: " + path);
  return read_csv(file, options, report);
}

}  // namespace mrsky::data
