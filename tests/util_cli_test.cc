#include "util/cli.h"

#include <gtest/gtest.h>

namespace krsp::util {
namespace {

Cli make(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, EqualsSyntax) {
  const auto cli = make({"--n=32", "--eps=0.5", "--name=waxman"});
  EXPECT_EQ(cli.get_int("n", 0), 32);
  EXPECT_DOUBLE_EQ(cli.get_double("eps", 0.0), 0.5);
  EXPECT_EQ(cli.get_string("name", ""), "waxman");
}

TEST(Cli, SpaceSyntax) {
  const auto cli = make({"--n", "32", "--name", "grid"});
  EXPECT_EQ(cli.get_int("n", 0), 32);
  EXPECT_EQ(cli.get_string("name", ""), "grid");
}

TEST(Cli, BooleanFlag) {
  const auto cli = make({"--verbose"});
  EXPECT_TRUE(cli.get_bool("verbose", false));
  EXPECT_TRUE(cli.has("verbose"));
  EXPECT_FALSE(cli.has("quiet"));
}

TEST(Cli, DefaultsUsedWhenAbsent) {
  const auto cli = make({});
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_EQ(cli.get_string("x", "d"), "d");
  EXPECT_FALSE(cli.get_bool("flag", false));
}

TEST(Cli, RejectUnknownFlags) {
  const auto cli = make({"--oops=1"});
  EXPECT_THROW(cli.reject_unknown(), CheckError);
}

TEST(Cli, RejectUnknownPassesWhenAllTouched) {
  const auto cli = make({"--n=1"});
  (void)cli.get_int("n", 0);
  EXPECT_NO_THROW(cli.reject_unknown());
}

TEST(Cli, NonFlagArgumentThrows) {
  std::vector<const char*> argv{"prog", "positional"};
  EXPECT_THROW(Cli(2, argv.data()), CliError);
}

TEST(Cli, MalformedNumbersThrow) {
  const auto cli = make({"--n=12x", "--eps=abc", "--big=99999999999999999999"});
  EXPECT_THROW((void)cli.get_int("n", 0), CliError);
  EXPECT_THROW((void)cli.get_double("eps", 0.0), CliError);
  EXPECT_THROW((void)cli.get_int("big", 0), CliError);
}

TEST(Cli, PositiveRejectsNanInfZeroAndNegative) {
  const auto cli = make({"--a=nan", "--b=inf", "--c=0", "--d=-1", "--e=1e300"});
  for (const char* name : {"a", "b", "c", "d"})
    EXPECT_THROW((void)cli.get_positive(name, 1.0), CliError) << name;
  EXPECT_DOUBLE_EQ(cli.get_positive("e", 1.0), 1e300);
  EXPECT_DOUBLE_EQ(cli.get_positive("absent", 0.25), 0.25);
}

TEST(Cli, CountRejectsNegativeAndOversizedValues) {
  const auto cli = make({"--a=-1", "--b=3000000000", "--c=0", "--d=5"});
  EXPECT_THROW((void)cli.get_count("a", 1), CliError);
  EXPECT_THROW((void)cli.get_count("b", 1, 2147483647), CliError);
  EXPECT_EQ(cli.get_count("b", 1), 3000000000);
  EXPECT_EQ(cli.get_count("c", 1), 0);
  EXPECT_EQ(cli.get_count("d", 1, 5), 5);
  EXPECT_EQ(cli.get_count("absent", 7), 7);
}

TEST(Cli, RunToolTurnsCliErrorsIntoExitTwo) {
  EXPECT_EQ(run_tool("usage: prog", [] { return 7; }), 7);
  EXPECT_EQ(run_tool("usage: prog",
                     [] {
                       const auto cli = make({"--oops"});
                       cli.reject_unknown();
                       return 0;
                     }),
            2);
}

}  // namespace
}  // namespace krsp::util
