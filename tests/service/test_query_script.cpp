// service::parse_query_script — grammar coverage and the all-errors contract
// (every malformed line reported in one throw, with line numbers).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <variant>

#include "src/common/error.hpp"
#include "src/service/script.hpp"

namespace mrsky {
namespace {

std::vector<service::ScriptCommand> parse(const std::string& text) {
  std::istringstream in(text);
  return service::parse_query_script(in);
}

TEST(QueryScript, ParsesEveryVerb) {
  const auto commands = parse(
      "# a comment line\n"
      "skyline\n"
      "\n"
      "subspace 0,2,3\n"
      "skyband 3\n"
      "representative 5\n"
      "topk 10 0.25,0.25,0.5\n"
      "insert extra.csv\n");
  ASSERT_EQ(commands.size(), 6u);

  const auto& q0 = std::get<service::Query>(commands[0]);
  EXPECT_TRUE(std::holds_alternative<service::SkylineQuery>(q0));

  const auto& q1 = std::get<service::Query>(commands[1]);
  const auto& sub = std::get<service::SubspaceQuery>(q1);
  EXPECT_EQ(sub.attributes, (std::vector<std::size_t>{0, 2, 3}));

  const auto& q2 = std::get<service::Query>(commands[2]);
  EXPECT_EQ(std::get<service::KSkybandQuery>(q2).k, 3u);

  const auto& q3 = std::get<service::Query>(commands[3]);
  EXPECT_EQ(std::get<service::RepresentativeQuery>(q3).k, 5u);

  const auto& q4 = std::get<service::Query>(commands[4]);
  const auto& topk = std::get<service::TopKWeightedQuery>(q4);
  EXPECT_EQ(topk.k, 10u);
  EXPECT_EQ(topk.weights, (std::vector<double>{0.25, 0.25, 0.5}));

  EXPECT_EQ(std::get<service::InsertCommand>(commands[5]).path, "extra.csv");
}

TEST(QueryScript, EmptyAndCommentOnlyScriptsYieldNothing) {
  EXPECT_TRUE(parse("").empty());
  EXPECT_TRUE(parse("# only\n\n   \n# comments\n").empty());
}

TEST(QueryScript, CollectsEveryBadLineInOneThrow) {
  try {
    (void)parse(
        "skyline\n"
        "skyline extra-arg\n"
        "skyband\n"
        "subspace 0,x\n"
        "topk 5 0.5,oops\n"
        "warp 9\n");
    FAIL() << "parse accepted a bad script";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("5 problems"), std::string::npos) << what;
    EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("line 4"), std::string::npos) << what;
    EXPECT_NE(what.find("line 5"), std::string::npos) << what;
    EXPECT_NE(what.find("line 6"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown command 'warp'"), std::string::npos) << what;
  }
}

TEST(QueryScript, SingleProblemUsesSingularWording) {
  try {
    (void)parse("skyband two\n");
    FAIL() << "parse accepted a bad script";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("1 problem:"), std::string::npos) << e.what();
  }
}

// Script delete ids are PointIds: `delete 4294967298` used to be cut to 32
// bits and delete row 2.
TEST(QueryScript, DeleteIdsOutsidePointIdRangeFailTyped) {
  const auto commands = parse("delete 0,4294967295\n");
  ASSERT_EQ(commands.size(), 1u);
  EXPECT_EQ(std::get<service::DeleteCommand>(commands[0]).ids,
            (std::vector<data::PointId>{0, 4294967295u}));
  try {
    (void)parse("delete 1,4294967298\n");
    FAIL() << "parse accepted an id past 2^32 - 1";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("bad point id '4294967298'"), std::string::npos)
        << e.what();
  }
}

TEST(QueryScript, MissingFileThrowsRuntimeError) {
  EXPECT_THROW((void)service::parse_query_script_file("/nonexistent/q.mrq"), RuntimeError);
}

// An inf/nan weight would poison every weighted score downstream (inf * 0 =
// nan), so every spelling that could produce one — "inf"/"nan" literals or an
// overflowing exponent — must be rejected with the offending line, not passed
// through.
TEST(QueryScript, RejectsNonFiniteTopkWeights) {
  try {
    (void)parse(
        "topk 3 0.5,inf\n"
        "topk 3 nan,0.5\n"
        "topk 3 0.25,-inf\n"
        "topk 3 1e999,0.5\n");
    FAIL() << "parse accepted non-finite weights";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("4 problems"), std::string::npos) << what;
    EXPECT_NE(what.find("line 1"), std::string::npos) << what;
    EXPECT_NE(what.find("weight 'inf'"), std::string::npos) << what;
    EXPECT_NE(what.find("weight 'nan'"), std::string::npos) << what;
    EXPECT_NE(what.find("weight '-inf'"), std::string::npos) << what;
    EXPECT_NE(what.find("weight '1e999'"), std::string::npos) << what;
  }
}

// Relative insert paths resolve against the script's own directory (the file
// a script names sits next to it), never against wherever the process happens
// to have been launched.
TEST(QueryScript, ResolvesRelativeInsertPathsAgainstBaseDir) {
  std::istringstream in("insert extra.csv\ninsert /abs/other.csv\n");
  const auto commands = service::parse_query_script(in, "/data/scripts");
  ASSERT_EQ(commands.size(), 2u);
  EXPECT_EQ(std::get<service::InsertCommand>(commands[0]).path, "/data/scripts/extra.csv");
  // Absolute paths are left alone.
  EXPECT_EQ(std::get<service::InsertCommand>(commands[1]).path, "/abs/other.csv");
}

TEST(QueryScript, FileParserUsesScriptDirectoryAsBase) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mrsky_script_dir_test";
  std::filesystem::create_directories(dir);
  const std::filesystem::path script = dir / "session.mrq";
  {
    std::ofstream out(script);
    out << "insert extra.csv\n";
  }
  const auto commands = service::parse_query_script_file(script.string());
  ASSERT_EQ(commands.size(), 1u);
  EXPECT_EQ(std::get<service::InsertCommand>(commands[0]).path, (dir / "extra.csv").string());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mrsky
