//===- OptionsTest.cpp - Shared option-parser contracts -------------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The strictness contracts of the shared OptionParser (DESIGN.md,
/// "Protocol v2"): unknown flags are errors, numeric values reject garbage
/// and out-of-range inputs at parse time, value flags demand values, and
/// positionals pass through untouched. verify_tool, verifyd, and rcc-lsp
/// all parse through this one implementation, so these are the CLI
/// contracts of every tool at once.
///
//===----------------------------------------------------------------------===//

#include "support/Options.h"

#include <gtest/gtest.h>

using namespace rcc::opts;

namespace {

/// Runs the parser over a brace-list of argument strings (argv[0] is
/// supplied automatically, as in a real invocation).
ParseResult parseArgs(OptionParser &P, std::vector<std::string> Args,
                      std::vector<std::string> &Pos) {
  std::vector<std::string> Store;
  Store.push_back("tool");
  for (auto &A : Args)
    Store.push_back(std::move(A));
  std::vector<char *> Argv;
  for (auto &S : Store)
    Argv.push_back(S.data());
  return P.parse(static_cast<int>(Argv.size()), Argv.data(), Pos);
}

TEST(ParseU64, StrictDecimal) {
  uint64_t V = 0;
  EXPECT_TRUE(parseU64("0", V));
  EXPECT_EQ(V, 0u);
  EXPECT_TRUE(parseU64("18446744073709551615", V));
  EXPECT_EQ(V, UINT64_MAX);

  EXPECT_FALSE(parseU64("", V));
  EXPECT_FALSE(parseU64("-1", V));
  EXPECT_FALSE(parseU64("+1", V));
  EXPECT_FALSE(parseU64("4x", V));
  EXPECT_FALSE(parseU64(" 4", V));
  EXPECT_FALSE(parseU64("18446744073709551616", V)); // UINT64_MAX + 1
}

TEST(ParseU64, MaxBound) {
  uint64_t V = 0;
  EXPECT_TRUE(parseU64("100", V, 100));
  EXPECT_FALSE(parseU64("101", V, 100));
}

TEST(ParseUnsignedFn, RejectsOverflow) {
  unsigned V = 0;
  EXPECT_TRUE(parseUnsigned("4294967295", V));
  EXPECT_FALSE(parseUnsigned("4294967296", V));
}

TEST(OptionParser, FlagsAndValues) {
  bool Stats = false, Recheck = true;
  unsigned Jobs = 0;
  uint64_t Budget = 0;
  std::string Dir;
  OptionParser P("tool", "<file.c>");
  P.flag("stats", Stats, true, "")
      .flag("no-recheck", Recheck, false, "")
      .unsignedOpt("jobs", Jobs, "")
      .u64Opt("cache-max-bytes", Budget, "")
      .strOpt("cache-dir", Dir, "");

  std::vector<std::string> Pos;
  EXPECT_EQ(parseArgs(P,
                      {"--stats", "--no-recheck", "--jobs=7",
                       "--cache-max-bytes=123456789012345", "--cache-dir=/x",
                       "a.c", "b.c"},
                      Pos),
            ParseResult::Ok);
  EXPECT_TRUE(Stats);
  EXPECT_FALSE(Recheck);
  EXPECT_EQ(Jobs, 7u);
  EXPECT_EQ(Budget, 123456789012345u);
  EXPECT_EQ(Dir, "/x");
  ASSERT_EQ(Pos.size(), 2u);
  EXPECT_EQ(Pos[0], "a.c");
  EXPECT_EQ(Pos[1], "b.c");
}

TEST(OptionParser, UnknownFlagIsError) {
  bool B = false;
  OptionParser P("tool", "");
  P.flag("stats", B, true, "");
  std::vector<std::string> Pos;
  EXPECT_EQ(parseArgs(P, {"--sttas"}, Pos), ParseResult::Error);
  EXPECT_EQ(P.error(), "--sttas");
}

TEST(OptionParser, MalformedNumericIsError) {
  unsigned Jobs = 0;
  OptionParser P("tool", "");
  P.unsignedOpt("jobs", Jobs, "");
  std::vector<std::string> Pos;
  EXPECT_EQ(parseArgs(P, {"--jobs=4x"}, Pos), ParseResult::Error);
  EXPECT_EQ(parseArgs(P, {"--jobs="}, Pos), ParseResult::Error);
  EXPECT_EQ(parseArgs(P, {"--jobs"}, Pos), ParseResult::Error);
}

TEST(OptionParser, RangeEnforcedAtParseTime) {
  unsigned PollMs = 200;
  OptionParser P("tool", "");
  P.unsignedOpt("poll-ms", PollMs, "", 1, 60000);
  std::vector<std::string> Pos;
  EXPECT_EQ(parseArgs(P, {"--poll-ms=0"}, Pos), ParseResult::Error);
  EXPECT_EQ(parseArgs(P, {"--poll-ms=60001"}, Pos), ParseResult::Error);
  EXPECT_EQ(parseArgs(P, {"--poll-ms=60000"}, Pos), ParseResult::Ok);
  EXPECT_EQ(PollMs, 60000u);
}

TEST(OptionParser, ValueFlagDemandsValue) {
  std::string Dir;
  OptionParser P("tool", "");
  P.strOpt("cache-dir", Dir, "");
  std::vector<std::string> Pos;
  EXPECT_EQ(parseArgs(P, {"--cache-dir="}, Pos), ParseResult::Error);
  EXPECT_EQ(parseArgs(P, {"--cache-dir"}, Pos), ParseResult::Error);
}

TEST(OptionParser, StrOptionalDefaultsWhenBare) {
  std::string Run;
  OptionParser P("tool", "");
  P.strOptional("run", Run, "main", "");
  std::vector<std::string> Pos;
  EXPECT_EQ(parseArgs(P, {"--run"}, Pos), ParseResult::Ok);
  EXPECT_EQ(Run, "main");
  EXPECT_EQ(parseArgs(P, {"--run=start"}, Pos), ParseResult::Ok);
  EXPECT_EQ(Run, "start");
}

TEST(OptionParser, CustomValidatorRejects) {
  std::string Format = "text";
  OptionParser P("tool", "");
  P.custom("format",
           [&Format](const std::string &V) {
             if (V != "json" && V != "text")
               return false;
             Format = V;
             return true;
           },
           "");
  std::vector<std::string> Pos;
  EXPECT_EQ(parseArgs(P, {"--format=json"}, Pos), ParseResult::Ok);
  EXPECT_EQ(Format, "json");
  EXPECT_EQ(parseArgs(P, {"--format=yaml"}, Pos), ParseResult::Error);
  EXPECT_EQ(Format, "json"); // rejected value must not leak through
}

TEST(OptionParser, VersionShortCircuits) {
  bool B = false;
  OptionParser P("tool", "");
  P.flag("stats", B, true, "").version();
  std::vector<std::string> Pos;
  EXPECT_EQ(parseArgs(P, {"--version"}, Pos), ParseResult::Version);
}

TEST(OptionParser, PositionalsMayLookLikeValues) {
  OptionParser P("tool", "<file.c>");
  std::vector<std::string> Pos;
  EXPECT_EQ(parseArgs(P, {"dir/with=equals.c"}, Pos), ParseResult::Ok);
  ASSERT_EQ(Pos.size(), 1u);
  EXPECT_EQ(Pos[0], "dir/with=equals.c");
}

TEST(OptionParser, UsageNamesEveryFlag) {
  bool B = false;
  unsigned U = 0;
  OptionParser P("mytool", "<file.c>");
  P.flag("stats", B, true, "").unsignedOpt("jobs", U, "");
  std::string U1 = P.usage();
  EXPECT_NE(U1.find("mytool"), std::string::npos);
  EXPECT_NE(U1.find("--stats"), std::string::npos);
  EXPECT_NE(U1.find("--jobs"), std::string::npos);
  EXPECT_NE(U1.find("<file.c>"), std::string::npos);
}

} // namespace
