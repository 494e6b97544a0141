//===- tests/EliminationTest.cpp ------------------------------------------===//
//
// Direct unit tests for the elimination internals: Fourier-Motzkin with
// real/dark shadows and splinters, equality elimination with mod-hat, and
// the elimination-cost heuristics.
//
//===----------------------------------------------------------------------===//

#include "omega/EqElimination.h"
#include "omega/FourierMotzkin.h"

#include "omega/Satisfiability.h"
#include "TestUtils.h"

#include <gtest/gtest.h>

using namespace omega;
using namespace omega::testutil;

//===----------------------------------------------------------------------===//
// Fourier-Motzkin
//===----------------------------------------------------------------------===//

TEST(FourierMotzkin, UnitCoefficientsAreExact) {
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{Y, 1}, {X, -1}}, 0);  // y >= x
  P.addGEQ({{Y, -1}}, 10);         // y <= 10
  FMResult R = fourierMotzkinEliminate(P, Y);
  EXPECT_TRUE(R.Exact);
  EXPECT_TRUE(R.Splinters.empty());
  // Combination: x <= 10.
  ASSERT_EQ(R.RealShadow.getNumConstraints(), 1u);
  EXPECT_EQ(R.RealShadow.constraints().front().getCoeff(X), -1);
}

TEST(FourierMotzkin, OneSidedBoundsDropCompletely) {
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{Y, 2}, {X, 1}}, 0); // only a lower bound on y
  P.addGEQ({{X, 1}}, -1);
  FMResult R = fourierMotzkinEliminate(P, Y);
  EXPECT_TRUE(R.Exact);
  EXPECT_EQ(R.RealShadow.getNumConstraints(), 1u); // just x >= 1
}

TEST(FourierMotzkin, DarkShadowTighterThanReal) {
  // 2y >= x and 3y <= x + 3: real shadow 3x <= 2x + 6 (x <= 6); dark
  // shadow subtracts (2-1)(3-1) = 2.
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{Y, 2}, {X, -1}}, 0);
  P.addGEQ({{Y, -3}, {X, 1}}, 3);
  FMResult R = fourierMotzkinEliminate(P, Y);
  EXPECT_FALSE(R.Exact);
  ASSERT_EQ(R.RealShadow.getNumConstraints(), 1u);
  ASSERT_EQ(R.DarkShadow.getNumConstraints(), 1u);
  int64_t RealConst = R.RealShadow.constraints().front().getConstant();
  int64_t DarkConst = R.DarkShadow.constraints().front().getConstant();
  EXPECT_EQ(RealConst - DarkConst, 2); // (a-1)(b-1)
}

TEST(FourierMotzkin, SplintersCarryEqualities) {
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{Y, 3}, {X, -1}}, -5);
  P.addGEQ({{Y, -2}, {X, 1}}, 7);
  FMResult R = fourierMotzkinEliminate(P, Y);
  EXPECT_FALSE(R.Exact);
  EXPECT_FALSE(R.Splinters.empty());
  for (const Problem &S : R.Splinters) {
    // Each splinter is the original plus one equality on Y.
    EXPECT_EQ(S.getNumConstraints(), P.getNumConstraints() + 1);
    EXPECT_EQ(S.getNumEQs(), 1u);
    EXPECT_TRUE(S.constraints().back().involves(Y));
  }
}

TEST(FourierMotzkin, UnionOfDarkAndSplintersIsExact) {
  OmegaContext Ctx;
  // For every x: integer y with 3y in [x+5, x+6] exists iff x mod 3 != 2.
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{Y, 3}, {X, -1}}, -5);
  P.addGEQ({{Y, -3}, {X, 1}}, 6);
  FMResult R = fourierMotzkinEliminate(P, Y);
  for (int64_t V = -8; V <= 8; ++V) {
    bool Expected = ((V % 3) + 3) % 3 != 2;
    bool InUnion = false;
    Problem Dark = R.DarkShadow;
    Dark.addEQ({{X, 1}}, -V);
    InUnion |= isSatisfiable(std::move(Dark), Ctx);
    for (const Problem &S : R.Splinters) {
      Problem Pinned = S;
      Pinned.addEQ({{X, 1}}, -V);
      InUnion |= isSatisfiable(std::move(Pinned), Ctx);
    }
    EXPECT_EQ(InUnion, Expected) << "x = " << V;
    // And the real shadow over-approximates.
    Problem Real = R.RealShadow;
    Real.addEQ({{X, 1}}, -V);
    if (Expected)
      EXPECT_TRUE(isSatisfiable(std::move(Real), Ctx));
  }
}

TEST(FourierMotzkin, CostPrefersExactEliminations) {
  Problem P;
  VarId X = P.addVar("x"); // unit bounds: exact
  VarId Y = P.addVar("y"); // 2/3 coefficients: inexact
  P.addGEQ({{X, 1}, {Y, 2}}, 0);
  P.addGEQ({{X, -1}, {Y, -3}}, 10);
  FMCost CX = estimateEliminationCost(P, X);
  FMCost CY = estimateEliminationCost(P, Y);
  EXPECT_FALSE(CX.Inexact);
  EXPECT_TRUE(CY.Inexact);
  EXPECT_TRUE(CX < CY);
}

TEST(FourierMotzkin, RedTagsPropagateThroughCombination) {
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{Y, 1}, {X, -1}}, 0, /*Red=*/true);
  P.addGEQ({{Y, -1}}, 10, /*Red=*/false);
  FMResult R = fourierMotzkinEliminate(P, Y);
  ASSERT_EQ(R.RealShadow.getNumConstraints(), 1u);
  EXPECT_TRUE(R.RealShadow.constraints().front().isRed());
}

//===----------------------------------------------------------------------===//
// Equality elimination
//===----------------------------------------------------------------------===//

TEST(EqElimination, UnitSubstitution) {
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addEQ({{X, 1}, {Y, -2}}, -3); // x == 2y + 3
  P.addGEQ({{X, 1}}, 0);          // x >= 0
  ASSERT_EQ(solveEqualities(P, Ctx), SolveResult::Ok);
  EXPECT_EQ(P.getNumEQs(), 0u);
  EXPECT_TRUE(P.isDead(X));
  // The inequality became 2y + 3 >= 0, i.e. y >= -1 after tightening.
  ASSERT_EQ(P.getNumConstraints(), 1u);
  EXPECT_EQ(P.constraints().front().getCoeff(Y), 1);
  EXPECT_EQ(P.constraints().front().getConstant(), 1);
}

TEST(EqElimination, ModHatIntroducesWildcard) {
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addEQ({{X, 3}, {Y, 5}}, -1); // 3x + 5y == 1
  unsigned Before = P.getNumVars();
  ASSERT_EQ(solveEqualities(P, Ctx), SolveResult::Ok);
  EXPECT_EQ(P.getNumEQs(), 0u);
  EXPECT_GT(P.getNumVars(), Before); // sigma wildcards were minted
}

TEST(EqElimination, DetectsGcdInfeasibility) {
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addEQ({{X, 6}, {Y, 10}}, -1); // gcd 2 does not divide 1
  EXPECT_EQ(solveEqualities(P, Ctx), SolveResult::False);
}

TEST(EqElimination, ProtectedVariablesSurvive) {
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x"); // protected
  VarId W = P.addVar("w", /*Protected=*/false);
  P.addEQ({{X, 1}, {W, -2}}, 0); // x == 2w: a stride on x
  auto OnlyWildcards = [&P](VarId V) { return !P.isProtected(V); };
  ASSERT_EQ(solveEqualities(P, OnlyWildcards, Ctx), SolveResult::Ok);
  // The equality must survive as a residual (w has no unit path that
  // eliminates it without touching x).
  EXPECT_EQ(P.getNumEQs(), 1u);
  EXPECT_FALSE(P.isDead(X));
}

TEST(EqElimination, ChainedSubstitutions) {
  OmegaContext Ctx;
  Problem P;
  VarId A = P.addVar("a");
  VarId B = P.addVar("b");
  VarId C = P.addVar("c");
  P.addEQ({{A, 1}, {B, -1}}, 0);
  P.addEQ({{B, 1}, {C, -1}}, 0);
  P.addGEQ({{A, 1}}, -4); // a >= 4
  P.addGEQ({{C, -1}}, 9); // c <= 9
  ASSERT_EQ(solveEqualities(P, Ctx), SolveResult::Ok);
  EXPECT_EQ(P.getNumEQs(), 0u);
  EXPECT_TRUE(isSatisfiable(P, Ctx));
}

TEST(EqEliminationProperty, PreservesSatisfiability) {
  OmegaContext Ctx;
  std::mt19937 Rng(2024);
  RandomProblemConfig Cfg;
  Cfg.NumVars = 3;
  Cfg.NumEQs = 2;
  Cfg.NumGEQs = 2;
  for (unsigned T = 0; T != 200; ++T) {
    Problem P = randomProblem(Rng, Cfg);
    bool Before = bruteForceSat(P, -Cfg.Box, Cfg.Box);
    Problem Q = P;
    SolveResult R = solveEqualities(Q, Ctx);
    if (R == SolveResult::False) {
      EXPECT_FALSE(Before) << P.toString();
      continue;
    }
    EXPECT_EQ(isSatisfiable(Q, Ctx), Before) << P.toString();
  }
}

TEST(EqEliminationProperty, RemovesAllEqualitiesWhenUnrestricted) {
  OmegaContext Ctx;
  std::mt19937 Rng(2025);
  RandomProblemConfig Cfg;
  Cfg.NumVars = 4;
  Cfg.NumEQs = 3;
  Cfg.NumGEQs = 1;
  for (unsigned T = 0; T != 200; ++T) {
    Problem P = randomProblem(Rng, Cfg);
    if (solveEqualities(P, Ctx) == SolveResult::Ok)
      EXPECT_EQ(P.getNumEQs(), 0u) << P.toString();
  }
}
