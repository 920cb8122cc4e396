#include "util/flags.h"

#include <gtest/gtest.h>

namespace pimine {
namespace {

FlagParser MustParse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  auto parser = FlagParser::Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(parser.ok());
  return std::move(parser).value();
}

TEST(FlagParserTest, KeyValueAndBooleanForms) {
  const FlagParser flags = MustParse(
      {"--dataset=MSD", "--k=10", "--pim", "--alpha=1e6", "positional"});
  EXPECT_TRUE(flags.Has("dataset"));
  EXPECT_EQ(flags.GetString("dataset", "x"), "MSD");
  EXPECT_EQ(flags.GetInt("k", 0), 10);
  EXPECT_TRUE(flags.GetBool("pim", false));
  EXPECT_DOUBLE_EQ(flags.GetDouble("alpha", 0.0), 1e6);
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  const FlagParser flags = MustParse({});
  EXPECT_FALSE(flags.Has("k"));
  EXPECT_EQ(flags.GetString("s", "fallback"), "fallback");
  EXPECT_EQ(flags.GetInt("k", 7), 7);
  EXPECT_DOUBLE_EQ(flags.GetDouble("a", 2.5), 2.5);
  EXPECT_FALSE(flags.GetBool("pim", false));
  EXPECT_TRUE(flags.GetBool("pim", true));
}

TEST(FlagParserTest, ExplicitBooleans) {
  const FlagParser flags = MustParse(
      {"--a=true", "--b=false", "--c=1", "--d=0", "--e=yes", "--f=no"});
  EXPECT_TRUE(flags.GetBool("a", false));
  EXPECT_FALSE(flags.GetBool("b", true));
  EXPECT_TRUE(flags.GetBool("c", false));
  EXPECT_FALSE(flags.GetBool("d", true));
  EXPECT_TRUE(flags.GetBool("e", false));
  EXPECT_FALSE(flags.GetBool("f", true));
}

TEST(FlagParserTest, MalformedValuesFallBack) {
  const FlagParser flags = MustParse({"--k=ten", "--a=1.5x"});
  EXPECT_EQ(flags.GetInt("k", -1), -1);
  EXPECT_DOUBLE_EQ(flags.GetDouble("a", -2.0), -2.0);
}

TEST(FlagParserTest, RejectsBadTokens) {
  const char* argv1[] = {"prog", "--"};
  EXPECT_FALSE(FlagParser::Parse(2, argv1).ok());
  const char* argv2[] = {"prog", "--=value"};
  EXPECT_FALSE(FlagParser::Parse(2, argv2).ok());
}

TEST(FlagParserTest, CheckKnownCatchesTypos) {
  const FlagParser flags = MustParse({"--dataset=MSD", "--kk=10"});
  EXPECT_TRUE(flags.CheckKnown({"dataset", "kk"}).ok());
  const Status status = flags.CheckKnown({"dataset", "k"});
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("kk"), std::string::npos);
}

TEST(FlagParserTest, CheckNonNegativeRejectsNegativeCounts) {
  const FlagParser flags =
      MustParse({"--requests=0", "--k=5", "--seed=-7", "--max_batch=-1"});
  EXPECT_TRUE(flags.CheckNonNegative({"requests", "k", "absent"}).ok());
  const Status status =
      flags.CheckNonNegative({"requests", "max_batch", "seed"});
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--max_batch"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("-1"), std::string::npos);
}

TEST(FlagParserTest, LastOccurrenceWins) {
  const FlagParser flags = MustParse({"--k=1", "--k=2"});
  EXPECT_EQ(flags.GetInt("k", 0), 2);
}

}  // namespace
}  // namespace pimine
