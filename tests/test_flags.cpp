// FlagSet — the shared option parser behind prism/prismd/gen_trace.
// The load-bearing contracts: an unknown option is ALWAYS an error
// (callers exit 2 — regression for the silent fall-through the old
// hand-rolled parsers had), malformed values name the flag, and
// positional arity is enforced.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "llmprism/common/flags.hpp"

namespace llmprism::cli {
namespace {

ParseResult parse(FlagSet& flags, std::vector<const char*> argv) {
  argv.insert(argv.begin(), "test");
  return flags.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagSetTest, ParsesEveryValueShape) {
  std::string s;
  bool b = false;
  double d = 0.0;
  std::uint16_t u16 = 0;
  std::uint32_t u32 = 0;
  std::uint64_t u64 = 0;
  std::optional<double> od;
  std::vector<std::string> pos;

  FlagSet flags("test");
  flags.flag("--str", "S", "", &s);
  flags.flag("--on", "", &b);
  flags.flag("--ratio", "F", "", &d);
  flags.flag("--port", "P", "", &u16);
  flags.flag("--count", "N", "", &u32);
  flags.flag("--big", "N", "", &u64);
  flags.flag("--opt", "F", "", &od);
  flags.positionals("<in>", 1, 2, &pos);

  const ParseResult result =
      parse(flags, {"--str", "hello", "--on", "--ratio=0.5", "--port", "8080",
                    "--count=42", "--big", "5000000000", "--opt=2.5", "in.lft",
                    "out.lft"});
  ASSERT_TRUE(result.ok) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(b);
  EXPECT_EQ(d, 0.5);
  EXPECT_EQ(u16, 8080);
  EXPECT_EQ(u32, 42u);
  EXPECT_EQ(u64, 5000000000ull);
  ASSERT_TRUE(od.has_value());
  EXPECT_EQ(*od, 2.5);
  EXPECT_EQ(pos, (std::vector<std::string>{"in.lft", "out.lft"}));
}

TEST(FlagSetTest, UnknownOptionIsAlwaysAnError) {
  // Regression: the old hand-rolled parsers silently ignored unknown
  // options; FlagSet must record an error naming the offender so callers
  // exit 2 with a usage hint.
  std::string s;
  std::vector<std::string> pos;
  FlagSet flags("test");
  flags.flag("--known", "S", "", &s);
  flags.positionals("<in>", 0, 9, &pos);

  const ParseResult result =
      parse(flags, {"--known", "x", "--bogus-flag", "in.lft"});
  EXPECT_FALSE(result.ok);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_NE(result.errors[0].find("--bogus-flag"), std::string::npos);
  EXPECT_EQ(s, "x") << "known flags before the error still parse";
}

TEST(FlagSetTest, MalformedValueNamesTheFlag) {
  std::uint32_t n = 0;
  double d = 0.0;
  FlagSet flags("test");
  flags.flag("--count", "N", "", &n);
  flags.flag("--ratio", "F", "", &d);

  for (const std::vector<const char*>& argv :
       {std::vector<const char*>{"--count", "banana"},
        std::vector<const char*>{"--count=-3"},
        std::vector<const char*>{"--ratio", "fast"},
        std::vector<const char*>{"--count"}}) {
    const ParseResult result = parse(flags, argv);
    EXPECT_FALSE(result.ok);
    ASSERT_FALSE(result.errors.empty());
    EXPECT_NE(result.errors[0].find("--"), std::string::npos)
        << "error must name the flag: " << result.errors[0];
  }
}

TEST(FlagSetTest, PositionalArityIsEnforced) {
  std::vector<std::string> pos;
  FlagSet flags("test");
  flags.positionals("<in> <out>", 2, 2, &pos);

  EXPECT_FALSE(parse(flags, {"only-one"}).ok);
  EXPECT_FALSE(parse(flags, {"a", "b", "c"}).ok);
  pos.clear();
  EXPECT_TRUE(parse(flags, {"a", "b"}).ok);
  EXPECT_EQ(pos, (std::vector<std::string>{"a", "b"}));
}

TEST(FlagSetTest, DoubleDashEndsFlagParsing) {
  bool on = false;
  std::vector<std::string> pos;
  FlagSet flags("test");
  flags.flag("--on", "", &on);
  flags.positionals("<args>", 0, 9, &pos);

  ASSERT_TRUE(parse(flags, {"--on", "--", "--not-a-flag"}).ok);
  EXPECT_TRUE(on);
  EXPECT_EQ(pos, (std::vector<std::string>{"--not-a-flag"}));
}

TEST(FlagSetTest, HelpShortCircuits) {
  std::uint32_t n = 0;
  FlagSet flags("test");
  flags.flag("--count", "N", "the count", &n);

  const ParseResult result = parse(flags, {"--help", "--count", "banana"});
  EXPECT_TRUE(result.help);
  const std::string usage = flags.usage();
  EXPECT_NE(usage.find("usage:"), std::string::npos);
  EXPECT_NE(usage.find("--count"), std::string::npos);
  EXPECT_NE(usage.find("the count"), std::string::npos);
}

TEST(FlagSetTest, CustomFlagErrorsPropagate) {
  std::vector<std::string> seen;
  FlagSet flags("test");
  flags.custom_flag("--item", "X", "repeatable", /*takes_value=*/true,
                    [&](std::string_view v) -> std::string {
                      if (v == "bad") return "bad item";
                      seen.emplace_back(v);
                      return {};
                    });

  ASSERT_TRUE(parse(flags, {"--item", "a", "--item=b"}).ok);
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));

  const ParseResult result = parse(flags, {"--item", "bad"});
  EXPECT_FALSE(result.ok);
  ASSERT_FALSE(result.errors.empty());
  EXPECT_NE(result.errors[0].find("bad item"), std::string::npos);
}

}  // namespace
}  // namespace llmprism::cli
