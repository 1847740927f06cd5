#include "src/common/cli.hpp"

#include <gtest/gtest.h>

#include "src/common/error.hpp"

namespace mrsky::common {
namespace {

CliArgs make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return CliArgs(static_cast<int>(argv.size()), argv.data());
}

TEST(CliArgs, ProgramNameCaptured) {
  EXPECT_EQ(make({}).program_name(), "prog");
}

TEST(CliArgs, StringFlag) {
  const auto args = make({"--name", "hello"});
  EXPECT_EQ(args.get_string("name", "x"), "hello");
}

TEST(CliArgs, StringFallback) {
  EXPECT_EQ(make({}).get_string("missing", "fallback"), "fallback");
}

TEST(CliArgs, EqualsSyntax) {
  const auto args = make({"--count=12"});
  EXPECT_EQ(args.get_int("count", 0), 12);
}

TEST(CliArgs, IntFlagAndFallback) {
  const auto args = make({"--n", "42"});
  EXPECT_EQ(args.get_int("n", 0), 42);
  EXPECT_EQ(args.get_int("m", 9), 9);
}

TEST(CliArgs, IntRejectsGarbage) {
  const auto args = make({"--n", "4x"});
  EXPECT_THROW((void)args.get_int("n", 0), InvalidArgument);
}

TEST(CliArgs, DoubleFlag) {
  const auto args = make({"--ratio", "2.5"});
  EXPECT_DOUBLE_EQ(args.get_double("ratio", 0.0), 2.5);
}

TEST(CliArgs, DoubleRejectsTrailing) {
  const auto args = make({"--ratio", "2.5abc"});
  EXPECT_THROW((void)args.get_double("ratio", 0.0), RuntimeError);
}

TEST(CliArgs, BareBooleanFlag) {
  const auto args = make({"--verbose"});
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_TRUE(args.get_bool("verbose", false));
}

TEST(CliArgs, ExplicitBooleanValues) {
  EXPECT_TRUE(make({"--x", "true"}).get_bool("x", false));
  EXPECT_TRUE(make({"--x", "1"}).get_bool("x", false));
  EXPECT_FALSE(make({"--x", "false"}).get_bool("x", true));
  EXPECT_FALSE(make({"--x", "0"}).get_bool("x", true));
}

TEST(CliArgs, BooleanRejectsGarbage) {
  EXPECT_THROW((void)make({"--x", "maybe"}).get_bool("x", false), RuntimeError);
}

TEST(CliArgs, BooleanFallback) {
  EXPECT_TRUE(make({}).get_bool("missing", true));
}

TEST(CliArgs, IntListParsesCommas) {
  const auto args = make({"--dims", "2,4,6,8,10"});
  EXPECT_EQ(args.get_int_list("dims", {}), (std::vector<std::int64_t>{2, 4, 6, 8, 10}));
}

TEST(CliArgs, IntListSingleElement) {
  const auto args = make({"--dims", "5"});
  EXPECT_EQ(args.get_int_list("dims", {}), (std::vector<std::int64_t>{5}));
}

TEST(CliArgs, IntListFallback) {
  EXPECT_EQ(make({}).get_int_list("dims", {1, 2}), (std::vector<std::int64_t>{1, 2}));
}

TEST(CliArgs, IntListRejectsEmptyElement) {
  const auto args = make({"--dims", "1,,3"});
  EXPECT_THROW(args.get_int_list("dims", {}), InvalidArgument);
}

TEST(CliArgs, RejectsPositionalArguments) {
  std::vector<const char*> argv = {"prog", "positional"};
  EXPECT_THROW(CliArgs(2, argv.data()), InvalidArgument);
}

TEST(CliArgs, HasDistinguishesPresence) {
  const auto args = make({"--a", "1"});
  EXPECT_TRUE(args.has("a"));
  EXPECT_FALSE(args.has("b"));
}

}  // namespace
}  // namespace mrsky::common
