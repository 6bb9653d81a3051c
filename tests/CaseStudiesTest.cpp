//===- CaseStudiesTest.cpp - The Figure 7 suite as an integration test ----===//
//
// Part of RefinedC++, a C++ reproduction of the RefinedC verifier (PLDI'21).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Integration tests over the full evaluation suite (Section 7): every case
/// study must (a) verify fully automatically, (b) have its derivation accept
/// replay by the independent proof checker, and (c) execute correctly on the
/// Caesium interpreter — for the concurrent ones under many randomized
/// schedules (the semantic substitute for Iris adequacy; see DESIGN.md).
///
//===----------------------------------------------------------------------===//

#include "casestudies/Evaluate.h"

#include <gtest/gtest.h>

using namespace rcc::casestudies;

namespace {
class CaseStudyTest : public ::testing::TestWithParam<std::string> {};
} // namespace

TEST_P(CaseStudyTest, VerifiesAndProofChecks) {
  const CaseStudy *CS = caseStudy(GetParam());
  ASSERT_NE(CS, nullptr);
  Fig7Row Row = evaluateCaseStudy(*CS);
  EXPECT_TRUE(Row.Verified) << Row.Error;
  EXPECT_TRUE(Row.ProofCheckOk) << "derivation replay failed";
  EXPECT_GT(Row.RuleApps, 0u);
  EXPECT_GT(Row.DistinctRules, 5u);
}

TEST_P(CaseStudyTest, ExecutesUnderManySchedules) {
  const CaseStudy *CS = caseStudy(GetParam());
  ASSERT_NE(CS, nullptr);
  std::vector<uint64_t> Seeds;
  unsigned N = CS->Concurrent ? 24 : 3;
  for (uint64_t S = 1; S <= N; ++S)
    Seeds.push_back(S);
  EXPECT_EQ(runSemantics(*CS, Seeds), "");
}

INSTANTIATE_TEST_SUITE_P(
    AllCaseStudies, CaseStudyTest,
    ::testing::Values("slist", "queue", "bsearch", "tsalloc", "pagealloc",
                      "bst_layered", "bst_direct", "hashmap", "mpool",
                      "spinlock", "barrier", "bitmap"),
    [](const ::testing::TestParamInfo<std::string> &I) { return I.param; });

//===----------------------------------------------------------------------===//
// Figure 7 shape checks (DESIGN.md: the paper's qualitative ordering)
//===----------------------------------------------------------------------===//

TEST(Figure7, ShapeMatchesPaper) {
  std::vector<Fig7Row> Rows = evaluateAll();
  ASSERT_EQ(Rows.size(), 12u); // the paper's 11 + the bitmap extension row
  auto Find = [&](const std::string &N) -> const Fig7Row & {
    for (const Fig7Row &R : Rows)
      if (R.Name == N)
        return R;
    static Fig7Row Dummy;
    return Dummy;
  };
  for (const Fig7Row &R : Rows)
    EXPECT_TRUE(R.Verified) << R.Name << ": " << R.Error;

  // The hashmap needs the most manual pure reasoning (Figure 7: Pure 265).
  const Fig7Row &HM = Find("Linear probing hashmap");
  for (const Fig7Row &R : Rows) {
    if (R.Name != HM.Name) {
      EXPECT_GE(HM.PureLines, R.PureLines) << R.Name;
    }
  }

  // The layered BST has more pure overhead than the direct one (Section 7,
  // class #3 discussion).
  EXPECT_GT(Find("Bin. search tree (layered)").PureLines,
            Find("Bin. search tree (direct)").PureLines);

  // The barrier is the smallest case study by rule applications (last row
  // of Figure 7).
  const Fig7Row &Bar = Find("One-time barrier");
  for (const Fig7Row &R : Rows) {
    if (R.Name != Bar.Name) {
      EXPECT_LE(Bar.RuleApps, R.RuleApps) << R.Name;
    }
  }

  // Concurrent case studies exercise the atomic rules.
  EXPECT_GT(Find("Spinlock").SideCondAuto, 0u);

  // Allocator-style case studies need no manual side conditions (Figure 7:
  // the page allocator row has 14/0).
  EXPECT_EQ(Find("Page allocator").SideCondManual, 0u);
}

TEST(Figure7, BitvectorBackendReplacesBitmapLemmas) {
  // The bitmap row's word-level side conditions need the annotated lemmas
  // (manual) under the pre-portfolio dispatch, but the bit-vector backend
  // discharges every one of them automatically — the manual count drops to
  // zero with the portfolio on.
  const CaseStudy *CS = caseStudy("bitmap");
  ASSERT_NE(CS, nullptr);

  EvalOptions Off;
  Off.Portfolio = rcc::pure::PortfolioMode::Off;
  Fig7Row RowOff = evaluateCaseStudy(*CS, Off);
  ASSERT_TRUE(RowOff.Verified) << RowOff.Error;
  EXPECT_GT(RowOff.SideCondManual, 0u);

  EvalOptions On;
  On.Portfolio = rcc::pure::PortfolioMode::On;
  Fig7Row Row = evaluateCaseStudy(*CS, On);
  ASSERT_TRUE(Row.Verified) << Row.Error;
  EXPECT_EQ(Row.SideCondManual, 0u);
  EXPECT_EQ(Row.SideCondAuto, RowOff.SideCondAuto + RowOff.SideCondManual);
}

TEST(Figure7, BacktrackingBaselineExploresMore) {
  // Ablation (Section 5's "no backtracking" design claim): the naive
  // baseline must apply strictly more rules on every case study it still
  // manages to verify, and must backtrack at least once somewhere.
  EvalOptions Fast;
  EvalOptions Slow;
  Slow.Backtracking = true;
  Slow.RunProofCheck = false;
  unsigned TotalBacktracked = 0;
  for (const char *Id : {"slist", "queue", "bst_direct"}) {
    const CaseStudy *CS = caseStudy(Id);
    ASSERT_NE(CS, nullptr);
    Fig7Row A = evaluateCaseStudy(*CS, Fast);
    Fig7Row B = evaluateCaseStudy(*CS, Slow);
    ASSERT_TRUE(A.Verified) << Id;
    if (!B.Verified)
      continue; // the naive search may fail outright; that is the point
    EXPECT_GE(B.RuleApps, A.RuleApps) << Id;
    TotalBacktracked += B.BacktrackedSteps;
  }
  EXPECT_GT(TotalBacktracked, 0u);
}
