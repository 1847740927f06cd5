#include "src/service/script.hpp"

#include <charconv>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <istream>
#include <optional>
#include <sstream>

#include "src/common/error.hpp"

namespace mrsky::service {

namespace {

/// Splits a comma-separated field. "0,2,3" -> {"0","2","3"}; empty items
/// (",," or trailing commas) are preserved so they can be reported as errors.
std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> items;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) {
      items.push_back(s.substr(pos));
      return items;
    }
    items.push_back(s.substr(pos, comma - pos));
    pos = comma + 1;
  }
}

bool parse_size(const std::string& s, std::size_t& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  return ec == std::errc{} && ptr == s.data() + s.size();
}

bool parse_double(const std::string& s, double& out) {
  if (s.empty()) return false;
  std::istringstream is(s);
  is.imbue(std::locale::classic());
  is >> out;
  return !is.fail() && is.eof();
}

}  // namespace

std::vector<ScriptCommand> parse_query_script(std::istream& in, const std::string& base_dir) {
  std::vector<ScriptCommand> commands;
  std::vector<std::string> errors;
  std::string line;
  std::size_t line_no = 0;

  auto bad = [&](const std::string& what) {
    errors.push_back("line " + std::to_string(line_no) + ": " + what);
  };

  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream fields(line);
    std::string verb;
    if (!(fields >> verb) || verb.front() == '#') continue;

    std::vector<std::string> args;
    for (std::string a; fields >> a;) args.push_back(a);

    if (verb == "skyline") {
      if (!args.empty()) {
        bad("skyline takes no arguments");
        continue;
      }
      commands.emplace_back(Query{SkylineQuery{}});
    } else if (verb == "subspace") {
      if (args.size() != 1) {
        bad("subspace expects one attribute list, e.g. `subspace 0,2`");
        continue;
      }
      SubspaceQuery q;
      bool ok = true;
      for (const std::string& item : split_commas(args[0])) {
        std::size_t attr = 0;
        if (!parse_size(item, attr)) {
          bad("subspace: bad attribute index '" + item + "'");
          ok = false;
          break;
        }
        q.attributes.push_back(attr);
      }
      if (ok) commands.emplace_back(Query{std::move(q)});
    } else if (verb == "skyband") {
      std::size_t k = 0;
      if (args.size() != 1 || !parse_size(args[0], k)) {
        bad("skyband expects one integer k, e.g. `skyband 3`");
        continue;
      }
      commands.emplace_back(Query{KSkybandQuery{k}});
    } else if (verb == "representative") {
      std::size_t k = 0;
      if (args.size() != 1 || !parse_size(args[0], k)) {
        bad("representative expects one integer k, e.g. `representative 5`");
        continue;
      }
      commands.emplace_back(Query{RepresentativeQuery{k}});
    } else if (verb == "topk") {
      std::size_t k = 0;
      if (args.size() != 2 || !parse_size(args[0], k)) {
        bad("topk expects `topk <k> <w,w,...>`, e.g. `topk 10 0.5,0.5`");
        continue;
      }
      TopKWeightedQuery q;
      q.k = k;
      bool ok = true;
      for (const std::string& item : split_commas(args[1])) {
        double w = 0.0;
        if (!parse_double(item, w)) {
          bad("topk: bad weight '" + item + "'");
          ok = false;
          break;
        }
        if (!std::isfinite(w)) {
          // `inf`/`nan` parse as doubles but can never rank a point
          // (inf * 0 = nan poisons every score): refuse them here, with the
          // line number, instead of letting the engine reject them later.
          bad("topk: non-finite weight '" + item + "'");
          ok = false;
          break;
        }
        q.weights.push_back(w);
      }
      if (ok) commands.emplace_back(Query{std::move(q)});
    } else if (verb == "insert") {
      if (args.size() != 1) {
        bad("insert expects one file path, e.g. `insert extra.csv`");
        continue;
      }
      // Resolve relative to the script, not the process CWD: a script that
      // says `insert extra.csv` means the file next to it, wherever the
      // session was launched from.
      std::filesystem::path path(args[0]);
      if (path.is_relative() && !base_dir.empty()) {
        path = std::filesystem::path(base_dir) / path;
      }
      commands.emplace_back(InsertCommand{path.string()});
    } else if (verb == "delete") {
      if (args.size() != 1) {
        bad("delete expects one id list, e.g. `delete 3,17,42`");
        continue;
      }
      DeleteCommand cmd;
      bool ok = true;
      for (const std::string& item : split_commas(args[0])) {
        std::size_t id = 0;
        const std::optional<data::PointId> checked =
            parse_size(item, id) ? data::point_id_from(static_cast<double>(id)) : std::nullopt;
        if (!checked.has_value()) {
          bad("delete: bad point id '" + item + "'");
          ok = false;
          break;
        }
        cmd.ids.push_back(*checked);
      }
      if (ok) commands.emplace_back(std::move(cmd));
    } else {
      bad("unknown command '" + verb +
          "' (expected skyline|subspace|skyband|representative|topk|insert|delete)");
    }
  }

  if (!errors.empty()) {
    std::string message = "query script has " + std::to_string(errors.size()) +
                          (errors.size() == 1 ? " problem:" : " problems:");
    for (const std::string& e : errors) message += "\n  - " + e;
    throw InvalidArgument(message);
  }
  return commands;
}

std::vector<ScriptCommand> parse_query_script_file(const std::string& path) {
  std::ifstream file(path);
  if (!file) MRSKY_FAIL("cannot open query script " + path);
  return parse_query_script(file, std::filesystem::path(path).parent_path().string());
}

}  // namespace mrsky::service
