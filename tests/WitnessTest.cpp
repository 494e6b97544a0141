//===- tests/WitnessTest.cpp ----------------------------------------------===//
//
// Tests for solution extraction (findSolution) and direction-vector
// compression (compressSplits).
//
//===----------------------------------------------------------------------===//

#include "deps/Dependence.h"
#include "omega/Satisfiability.h"

#include "TestUtils.h"

#include <gtest/gtest.h>

using namespace omega;
using namespace omega::testutil;

TEST(FindSolution, SimpleBox) {
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{X, 1}}, -2);
  P.addGEQ({{X, -1}}, 7);
  P.addGEQ({{Y, 1}, {X, -1}}, 0); // y >= x
  auto Sol = findSolution(P, Ctx);
  ASSERT_TRUE(Sol.has_value());
  EXPECT_TRUE(evalProblem(P, *Sol));
  EXPECT_EQ((*Sol)[X], 2); // pinned to the minimum
}

TEST(FindSolution, UnsatisfiableReturnsNothing) {
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  P.addGEQ({{X, 1}}, -5);
  P.addGEQ({{X, -1}}, 2);
  EXPECT_FALSE(findSolution(P, Ctx).has_value());
}

TEST(FindSolution, RespectsStrides) {
  OmegaContext Ctx;
  // 3x == y, 7 <= y <= 8: only y == ... 3x in [7,8] has no multiple of
  // 3... adjust: 6 <= y <= 8 gives y == 6, x == 2.
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addEQ({{X, 3}, {Y, -1}}, 0);
  P.addGEQ({{Y, 1}}, -6);
  P.addGEQ({{Y, -1}}, 8);
  auto Sol = findSolution(P, Ctx);
  ASSERT_TRUE(Sol.has_value());
  EXPECT_TRUE(evalProblem(P, *Sol));
  EXPECT_EQ((*Sol)[Y] % 3, 0);
}

TEST(FindSolution, UnboundedDirections) {
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addEQ({{X, 1}, {Y, -2}}, -1); // x == 2y + 1: no finite bounds at all
  auto Sol = findSolution(P, Ctx);
  ASSERT_TRUE(Sol.has_value());
  EXPECT_TRUE(evalProblem(P, *Sol));
}

TEST(FindSolution, EqualityChain) {
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  VarId Z = P.addVar("z");
  P.addEQ({{X, 1}, {Y, 1}, {Z, 1}}, -10);
  P.addGEQ({{X, 1}}, 0);
  P.addGEQ({{Y, 1}}, 0);
  P.addGEQ({{Z, 1}}, 0);
  P.addGEQ({{X, -1}}, 4);
  P.addGEQ({{Y, -1}}, 4);
  P.addGEQ({{Z, -1}}, 4);
  auto Sol = findSolution(P, Ctx);
  ASSERT_TRUE(Sol.has_value());
  EXPECT_TRUE(evalProblem(P, *Sol));
  EXPECT_EQ((*Sol)[X] + (*Sol)[Y] + (*Sol)[Z], 10);
}

TEST(FindSolution, DarkShadowOnlyElimination) {
  // exists x: 2y <= 3x <= 2y + 5 with y in [0, 10]. Both variables carry
  // coefficient >= 2 in the coupled rows, so no elimination is exact; the
  // cheapest (x, a single pair) combines to slack 15 >= (3-1)*(3-1), so
  // the dark shadow decides SAT without splintering. The witness path
  // must still surface a concrete point through the inexact elimination.
  OmegaContext Ctx;
  Problem P;
  VarId Y = P.addVar("y");
  VarId X = P.addVar("x", /*Protected=*/false);
  P.addGEQ({{X, 3}, {Y, -2}}, 0);     // 3x >= 2y
  P.addGEQ({{Y, 2}, {X, -3}}, 5);     // 2y + 5 >= 3x
  P.addGEQ({{Y, 1}}, 0);              // y >= 0
  P.addGEQ({{Y, -1}}, 10);            // y <= 10
  EXPECT_TRUE(isSatisfiable(P, Ctx));
  EXPECT_GT(Ctx.Stats.DarkShadowDecided, 0u)
      << "expected the dark-shadow test to decide this elimination";
  auto Sol = findSolution(P, Ctx);
  ASSERT_TRUE(Sol.has_value());
  EXPECT_TRUE(evalProblem(P, *Sol));
}

TEST(FindSolution, SplinteredElimination) {
  // A widened variant of the classic dense system (27 <= 11x + 13y <= 45,
  // -10 <= 7x - 9y <= 6): every elimination pair has both coefficients
  // large. The top-level sat query squeaks through on the dark shadow,
  // but extracting a concrete point pins variables into subproblems whose
  // dark shadows are empty, so the witness path must survive splinter
  // exploration -- and the point it returns must check out.
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{X, 11}, {Y, 13}}, -27);
  P.addGEQ({{X, -11}, {Y, -13}}, 45);
  P.addGEQ({{X, 7}, {Y, -9}}, 10);
  P.addGEQ({{X, -7}, {Y, 9}}, 6);
  EXPECT_TRUE(isSatisfiable(P, Ctx));
  auto Sol = findSolution(P, Ctx);
  ASSERT_TRUE(Sol.has_value());
  EXPECT_TRUE(evalProblem(P, *Sol));
  EXPECT_GT(Ctx.Stats.SplintersExplored, 0u)
      << "expected splinter exploration while pinning the witness";
}

TEST(FindSolution, SplinteredUnsatHasNoWitness) {
  // The paper's hard case verbatim: 27 <= 11x + 13y <= 45 and
  // -10 <= 7x - 9y <= 4 is satisfiable over the rationals but has no
  // integer point. Every splinter comes up empty and no witness may be
  // fabricated.
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{X, 11}, {Y, 13}}, -27);
  P.addGEQ({{X, -11}, {Y, -13}}, 45);
  P.addGEQ({{X, 7}, {Y, -9}}, 10);
  P.addGEQ({{X, -7}, {Y, 9}}, 4);
  EXPECT_FALSE(isSatisfiable(P, Ctx));
  EXPECT_GT(Ctx.Stats.SplintersExplored, 0u);
  EXPECT_FALSE(findSolution(P, Ctx).has_value());
}

TEST(FindSolutionProperty, AgreesWithEvaluation) {
  OmegaContext Ctx;
  std::mt19937 Rng(404);
  RandomProblemConfig Cfg;
  Cfg.NumVars = 3;
  Cfg.NumEQs = 1;
  Cfg.NumGEQs = 3;
  for (unsigned T = 0; T != 150; ++T) {
    Problem P = randomProblem(Rng, Cfg);
    auto Sol = findSolution(P, Ctx);
    bool Sat = isSatisfiable(P, Ctx);
    ASSERT_EQ(Sol.has_value(), Sat) << P.toString();
    if (Sol)
      EXPECT_TRUE(evalProblem(P, *Sol)) << P.toString();
  }
}

//===----------------------------------------------------------------------===//
// compressSplits
//===----------------------------------------------------------------------===//

namespace {

deps::DepSplit makeSplit(unsigned Level,
                         std::vector<std::pair<int64_t, int64_t>> Ranges) {
  deps::DepSplit S;
  S.Level = Level;
  for (auto [Lo, Hi] : Ranges) {
    deps::DirectionElem E;
    E.Range.Empty = false;
    E.Range.HasMin = Lo != INT64_MIN;
    E.Range.HasMax = Hi != INT64_MAX;
    E.Range.Min = Lo;
    E.Range.Max = Hi;
    S.Dir.push_back(E);
  }
  return S;
}

} // namespace

TEST(CompressSplits, PaperExampleZeroPlusOne) {
  // {(+,1), (0,1)} compresses to (0+,1).
  auto Out = deps::compressSplits(
      {makeSplit(1, {{1, INT64_MAX}, {1, 1}}),
       makeSplit(2, {{0, 0}, {1, 1}})});
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].dirToString(), "(0+,1)");
}

TEST(CompressSplits, CoupledVectorsStayApart) {
  // {(+,+), (0,0)}: compressing to (0+,0+) would invent (0,+) and (+,0).
  auto Out = deps::compressSplits(
      {makeSplit(1, {{1, INT64_MAX}, {1, INT64_MAX}}),
       makeSplit(0, {{0, 0}, {0, 0}})});
  EXPECT_EQ(Out.size(), 2u);
}

TEST(CompressSplits, NonAdjacentRangesStayApart) {
  // {(0,1), (3,1)}: a gap at 1..2 blocks the merge.
  auto Out = deps::compressSplits(
      {makeSplit(1, {{0, 0}, {1, 1}}), makeSplit(1, {{3, 3}, {1, 1}})});
  EXPECT_EQ(Out.size(), 2u);
}

TEST(CompressSplits, AdjacentRangesMerge) {
  // {(0:1,1), (2:4,1)} -> (0:4,1).
  auto Out = deps::compressSplits(
      {makeSplit(1, {{0, 1}, {1, 1}}), makeSplit(1, {{2, 4}, {1, 1}})});
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].dirToString(), "(0:4,1)");
}

TEST(CompressSplits, MixedFlagsDoNotMerge) {
  deps::DepSplit Dead = makeSplit(1, {{1, 1}});
  Dead.Dead = true;
  Dead.DeadReason = 'k';
  auto Out = deps::compressSplits({makeSplit(2, {{0, 0}}), Dead});
  EXPECT_EQ(Out.size(), 2u);
}

TEST(CompressSplits, TransitiveMerging) {
  // Three unit ranges chain into one.
  auto Out = deps::compressSplits({makeSplit(1, {{0, 0}}),
                                   makeSplit(1, {{1, 1}}),
                                   makeSplit(1, {{2, 2}})});
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].dirToString(), "(0:2)");
}
