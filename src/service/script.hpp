// Query-script parsing for the `mrsky query` subcommand.
//
// A script drives a QueryEngine session: one command per line, executed in
// order against the resident dataset. Grammar (whitespace-separated; blank
// lines and `#` comments ignored):
//
//   skyline                      full skyline
//   subspace 0,2,3               skyline over an attribute subset
//   skyband 3                    3-skyband
//   representative 5             5 greedy max-coverage representatives
//   topk 10 0.25,0.25,0.5        best 10 by weighted sum (one weight/attr)
//   insert extra.csv             insert_batch from a CSV or .mrb file
//   delete 3,17,42               delete points by engine id (one tick)
//
// Parsing follows the library's all-errors validation style: every malformed
// line is collected and reported in ONE mrsky::InvalidArgument, with line
// numbers, instead of failing on the first typo.
#pragma once

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

#include "src/service/query.hpp"

namespace mrsky::service {

/// `insert <path>`: load the file and insert_batch it. Relative paths are
/// resolved against `base_dir` at parse time (parse_query_script_file passes
/// the script's own directory, so `insert extra.csv` means "next to the
/// script", not "wherever the process happens to run"); absolute paths pass
/// through untouched.
struct InsertCommand {
  std::string path;
};

/// `delete <id,id,...>`: apply_batch one tick deleting those engine ids
/// (unknown ids count as missing in the delta, not errors).
struct DeleteCommand {
  std::vector<data::PointId> ids;
};

using ScriptCommand = std::variant<Query, InsertCommand, DeleteCommand>;

/// Parses a whole script. Relative insert paths are resolved against
/// `base_dir` (empty = leave them as written). Throws mrsky::InvalidArgument
/// listing every bad line at once — including non-finite top-k weights, which
/// parse as doubles but can never score a point. Note this is otherwise a
/// *syntax* pass — semantic validation against the dataset (attribute ranges,
/// weight counts) happens in QueryEngine::execute via validate_query.
[[nodiscard]] std::vector<ScriptCommand> parse_query_script(std::istream& in,
                                                            const std::string& base_dir = "");

/// Reads and parses `path`, resolving relative insert paths against the
/// script file's directory; throws mrsky::RuntimeError if unreadable.
[[nodiscard]] std::vector<ScriptCommand> parse_query_script_file(const std::string& path);

}  // namespace mrsky::service
