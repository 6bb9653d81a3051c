//===- SupportTest.cpp - Unit tests for the support library ---------------===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//

#include "support/Diagnostics.h"
#include "support/Util.h"

#include <gtest/gtest.h>

using namespace rcc;

TEST(Diagnostics, CollectsAndRenders) {
  DiagnosticEngine DE;
  EXPECT_FALSE(DE.hasErrors());
  DE.error({3, 5}, "cannot prove side condition");
  DE.addContext("goal: n <= a");
  EXPECT_TRUE(DE.hasErrors());
  EXPECT_EQ(DE.size(), 1u);

  std::string Src = "line one\nline two\nint x = y;\n";
  std::string Out = DE.render(Src);
  EXPECT_NE(Out.find("error: 3:5: cannot prove side condition"),
            std::string::npos);
  EXPECT_NE(Out.find("int x = y;"), std::string::npos);
  EXPECT_NE(Out.find("goal: n <= a"), std::string::npos);
}

TEST(Diagnostics, WarningIsNotError) {
  DiagnosticEngine DE;
  DE.warning({1, 1}, "expression may be non-deterministic");
  EXPECT_FALSE(DE.hasErrors());
}

TEST(Util, JoinAndSplit) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  auto Parts = splitString("a,b,,c", ',');
  ASSERT_EQ(Parts.size(), 4u);
  EXPECT_EQ(Parts[2], "");
}

TEST(Util, Trim) {
  EXPECT_EQ(trim("  hi \t"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(Util, CountSourceLinesClassifiesAnnotations) {
  std::string Src = R"(
struct [[rc::refined_by("a: nat")]] mem_t {
  [[rc::field("a @ int<size_t>")]] size_t len;
};

[[rc::parameters("a: nat")]]
[[rc::args("p @ &own<a @ mem_t>")]]
[[rc::returns("{a} @ int<size_t>")]]
size_t get(struct mem_t* d) {
  return d->len;
}
)";
  SourceLineStats S = countSourceLines(Src);
  EXPECT_EQ(S.FnSpec, 3u);
  EXPECT_GE(S.StructInv, 2u);
  EXPECT_EQ(S.Loop, 0u);
  // struct line, field line, closing brace, fn header, return, closing brace
  EXPECT_GE(S.Impl, 5u);
}

TEST(Util, CountSourceLinesLoopAnnotations) {
  std::string Src = R"(
[[rc::parameters("n: nat")]]
[[rc::args("n @ int<size_t>")]]
void f(size_t n) {
  size_t i = 0;
  [[rc::exists("k: nat")]]
  [[rc::inv_vars("i: k @ int<size_t>")]]
  while (i < n) {
    i += 1;
  }
}
)";
  SourceLineStats S = countSourceLines(Src);
  EXPECT_EQ(S.Loop, 2u);
  EXPECT_EQ(S.FnSpec, 2u);
}

TEST(Util, TokenRangeAtResolvesLinesFromRecordedStarts) {
  std::string Src = "int a;\nfoo_bar(x);\n  y";
  std::vector<size_t> Starts = lineStarts(Src);
  EXPECT_EQ(Starts, (std::vector<size_t>{0, 7, 19}));
  auto Range = [&](uint32_t L, uint32_t C) {
    SourceRange R = tokenRangeAt(Src, Starts, {L, C});
    return std::to_string(R.Begin.Line) + ":" + std::to_string(R.Begin.Col) +
           "-" + std::to_string(R.End.Line) + ":" + std::to_string(R.End.Col);
  };
  EXPECT_EQ(Range(2, 1), "2:1-2:8");  // identifier run
  EXPECT_EQ(Range(2, 8), "2:8-2:9");  // single punctuation character
  EXPECT_EQ(Range(3, 3), "3:3-3:4");  // last line, no trailing newline
  EXPECT_EQ(Range(1, 40), "1:40-1:41"); // past the end of its line
  EXPECT_EQ(Range(9, 1), "9:1-9:2");  // past the last line
  EXPECT_FALSE(tokenRangeAt(Src, Starts, {}).isValid());
}

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <atomic>
#include <numeric>

TEST(ThreadPool, ResolveJobs) {
  EXPECT_EQ(ThreadPool::resolveJobs(1), 1u);
  EXPECT_EQ(ThreadPool::resolveJobs(7), 7u);
  EXPECT_GE(ThreadPool::resolveJobs(0), 1u) << "0 means all hardware cores";
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.threadCount(), 4u);
  std::vector<std::atomic<int>> Counts(1000);
  Pool.parallelFor(Counts.size(), [&](size_t I) { Counts[I]++; });
  for (size_t I = 0; I < Counts.size(); ++I)
    EXPECT_EQ(Counts[I].load(), 1) << "index " << I;
}

TEST(ThreadPool, DeterministicPlacement) {
  ThreadPool Pool(3);
  std::vector<size_t> Out(257, 0);
  Pool.parallelFor(Out.size(), [&](size_t I) { Out[I] = I * I; });
  for (size_t I = 0; I < Out.size(); ++I)
    EXPECT_EQ(Out[I], I * I);
}

TEST(ThreadPool, SerialFastPathAndReuse) {
  ThreadPool Pool(1); // no worker threads: caller runs everything
  int Sum = 0;
  Pool.parallelFor(10, [&](size_t I) { Sum += (int)I; }); // no race: serial
  EXPECT_EQ(Sum, 45);
  // The same pool is reusable for later batches.
  std::atomic<int> Sum2{0};
  Pool.parallelFor(5, [&](size_t I) { Sum2 += (int)I; });
  EXPECT_EQ(Sum2.load(), 10);
}

TEST(ThreadPool, PropagatesFirstException) {
  ThreadPool Pool(4);
  EXPECT_THROW(Pool.parallelFor(100,
                                [&](size_t I) {
                                  if (I == 37)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // Pool survives an exceptional batch.
  std::atomic<int> N{0};
  Pool.parallelFor(8, [&](size_t) { N++; });
  EXPECT_EQ(N.load(), 8);
}

TEST(ThreadPool, EmptyBatch) {
  ThreadPool Pool(2);
  Pool.parallelFor(0, [&](size_t) { FAIL() << "body must not run"; });
}

//===----------------------------------------------------------------------===//
// Json
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <cstdint>

TEST(Json, AsIntGivesTheDefaultOutsideInt64) {
  auto IntOf = [](const char *Text) {
    json::Value V;
    EXPECT_TRUE(json::parse(Text, V)) << Text;
    return V.asInt(42);
  };
  // 2^63, the smallest double above INT64_MAX, is out of range.
  EXPECT_EQ(IntOf("9223372036854775808"), 42);
  EXPECT_EQ(IntOf("1e300"), 42);
  EXPECT_EQ(IntOf("-1e300"), 42);
  // -2^63 and 2^63 - 1024, the largest double below 2^63, are in range.
  EXPECT_EQ(IntOf("-9223372036854775808"), INT64_MIN);
  EXPECT_EQ(IntOf("9223372036854774784"), INT64_C(9223372036854774784));
  EXPECT_EQ(IntOf("-7.9"), -7);
  EXPECT_EQ(IntOf("\"7\""), 42);
}
