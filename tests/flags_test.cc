#include "util/flags.h"

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

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

// A count that is not a base-10 integer within int64 is misuse, not a
// silent default: an empty value (--n= and bare --n), trailing characters,
// and values strtoll reports out of range.
TEST(FlagParserTest, CheckNonNegativeRejectsMalformedCounts) {
  for (const char* bad :
       {"--n=", "--n", "--n=abc", "--n=2x", "--n=1.5", "--n=1e3",
        "--n=99999999999999999999999", "--n=-99999999999999999999"}) {
    const FlagParser flags = MustParse({"--k=5", bad});
    const Status status = flags.CheckNonNegative({"k", "n"});
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(status.message().find("--n"), std::string::npos)
        << status.ToString();
  }
  const FlagParser flags =
      MustParse({"--n=9223372036854775807", "--k=-0", "--seed=abc"});
  EXPECT_TRUE(flags.CheckNonNegative({"n", "k"}).ok());
  EXPECT_EQ(flags.GetInt("n", 0), INT64_MAX);
  // The getters keep their fallback, out-of-range values included.
  EXPECT_EQ(MustParse({"--n=99999999999999999999"}).GetInt("n", 7), 7);
}

// Seeded SplitMix64 fuzz of Parse and every getter over tokens built from
// flag-like pieces. Every argv parses or fails with InvalidArgument, and
// nothing crashes (the ASan+UBSan job runs this). A count CheckNonNegative
// accepts is one GetInt reads back without its fallback.
TEST(FlagParserTest, FuzzedArgvParsesOrFailsCleanly) {
  constexpr std::string_view kPrefixes[] = {"--", "--", "-", "", "---"};
  constexpr std::string_view kKeys[] = {"n", "k", "queries", "pim", "", "="};
  constexpr std::string_view kValueChars = "0123456789-+=x.e ";
  const std::vector<std::string> counts = {"n", "k", "queries"};
  uint64_t draw = 0x6A09E667F3BCC908ULL;
  size_t parsed_ok = 0;
  for (int round = 0; round < 20000; ++round) {
    std::vector<std::string> tokens;
    draw = Mix64(draw);
    const size_t num_tokens = draw % 5;
    for (size_t i = 0; i < num_tokens; ++i) {
      draw = Mix64(draw);
      std::string token(kPrefixes[draw % std::size(kPrefixes)]);
      token += kKeys[(draw >> 8) % std::size(kKeys)];
      if ((draw >> 16) % 4 != 0) {
        token += '=';
        const size_t len = (draw >> 24) % 24;
        for (size_t c = 0; c < len; ++c) {
          draw = Mix64(draw);
          token += kValueChars[draw % kValueChars.size()];
        }
      }
      tokens.push_back(std::move(token));
    }
    std::vector<const char*> argv = {"prog"};
    for (const std::string& token : tokens) argv.push_back(token.c_str());
    const auto parsed =
        FlagParser::Parse(static_cast<int>(argv.size()), argv.data());
    if (!parsed.ok()) {
      EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    ++parsed_ok;
    for (const char* key : {"n", "k", "queries", "pim", "absent"}) {
      parsed->GetString(key, "");
      parsed->GetInt(key, 0);
      parsed->GetDouble(key, 0.0);
      parsed->GetBool(key, false);
    }
    const Status known = parsed->CheckKnown(counts);
    EXPECT_TRUE(known.ok() || known.code() == StatusCode::kInvalidArgument);
    const Status counted = parsed->CheckNonNegative(counts);
    if (!counted.ok()) {
      EXPECT_EQ(counted.code(), StatusCode::kInvalidArgument);
      continue;
    }
    for (const std::string& key : counts) {
      if (!parsed->Has(key)) continue;
      EXPECT_GE(parsed->GetInt(key, -1), 0) << key;
      EXPECT_EQ(parsed->GetInt(key, -1), parsed->GetInt(key, -2)) << key;
    }
  }
  EXPECT_GT(parsed_ok, 1000u);
}

TEST(FlagParserTest, LastOccurrenceWins) {
  const FlagParser flags = MustParse({"--k=1", "--k=2"});
  EXPECT_EQ(flags.GetInt("k", 0), 2);
}

}  // namespace
}  // namespace pimine
