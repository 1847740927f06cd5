// Malformed-input ledger shared by the dataset readers' lenient modes.
//
// Real QoS collections (the QWS file the paper evaluates on is a hand-curated
// web crawl) arrive with ragged rows, unparsable cells, and out-of-range
// measurements. The strict readers abort on the first such row; the lenient
// modes mirror the engine's skip-bad-records mechanism at the input layer:
// the offending row (or corrupt `.mrb` block) is dropped and accounted for
// here, and the load continues.
#pragma once

#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace mrsky::data {

/// One rejected input unit: a CSV row, or a `.mrb` block or row.
struct ParseIssue {
  std::size_t row = 0;  ///< 0-based data-row (or block) index in the source
  std::string reason;   ///< human-readable cause
};

/// Per-file report of what a lenient read accepted and dropped. Only the
/// first kMaxRecordedIssues causes are kept verbatim; the counters always
/// cover everything.
struct ParseReport {
  static constexpr std::size_t kMaxRecordedIssues = 32;

  std::size_t rows_read = 0;     ///< units accepted into the point set
  std::size_t rows_skipped = 0;  ///< units dropped
  std::vector<ParseIssue> issues;

  void add_issue(std::size_t row, std::string reason) {
    ++rows_skipped;
    if (issues.size() < kMaxRecordedIssues) {
      issues.push_back(ParseIssue{row, std::move(reason)});
    }
  }

  [[nodiscard]] bool clean() const noexcept { return rows_skipped == 0; }

  /// Multi-line human-readable account, e.g. for the CLI's --lenient mode.
  [[nodiscard]] std::string summary() const {
    std::ostringstream os;
    os << rows_read << " rows read, " << rows_skipped << " skipped\n";
    for (const auto& issue : issues) {
      os << "  row " << issue.row << ": " << issue.reason << "\n";
    }
    if (rows_skipped > issues.size()) {
      os << "  (" << (rows_skipped - issues.size()) << " further issues not recorded)\n";
    }
    return os.str();
  }
};

}  // namespace mrsky::data
