//===- tests/OverflowTest.cpp ---------------------------------------------===//
//
// Tests for the coefficient-overflow containment: saturating arithmetic
// raises the sticky flag, and every decision procedure degrades to its
// conservative answer instead of crashing or lying.
//
//===----------------------------------------------------------------------===//

#include "omega/Gist.h"
#include "omega/Projection.h"
#include "omega/Satisfiability.h"
#include "support/MathUtils.h"

#include <gtest/gtest.h>

using namespace omega;

namespace {

/// Clears the flag for a fresh test.
struct FlagReset {
  FlagReset() { arithOverflowFlag() = false; }
  ~FlagReset() { arithOverflowFlag() = false; }
};

/// A problem whose Fourier-Motzkin elimination chain saturates: large
/// pairwise-coprime coefficients force repeated cross-multiplications.
Problem blowupProblem() {
  Problem P;
  std::vector<VarId> V;
  for (int I = 0; I != 6; ++I)
    V.push_back(P.addVar("v" + std::to_string(I)));
  // Dense rows with large coprime coefficients.
  const int64_t Coeffs[6][6] = {
      {999999937, -888888883, 777777777, -666666667, 555555557, -444444443},
      {-333333333, 999999937, -777777777, 888888883, -555555557, 666666667},
      {123456789, -987654321, 999999937, -111111113, 222222227, -333333331},
      {-444444449, 555555559, -666666671, 999999937, -777777781, 888888893},
      {987654323, -123456791, 345678917, -765432113, 999999937, -135791357},
      {-246813579, 975318643, -864209753, 753197531, -642086421, 999999937},
  };
  for (int R = 0; R != 6; ++R) {
    Constraint &Row = P.addRow(ConstraintKind::GEQ);
    for (int C = 0; C != 6; ++C)
      Row.setCoeff(V[C], Coeffs[R][C]);
    Row.setConstant((R % 2) ? -99999989 : 99999989);
    Constraint &Opp = P.addRow(ConstraintKind::GEQ);
    for (int C = 0; C != 6; ++C)
      Opp.setCoeff(V[C], -Coeffs[R][C] + (C == R ? 3 : 1));
    Opp.setConstant(99999989);
  }
  return P;
}

/// Options that ask for the real-shadow approximation too.
ProjectOptions withApprox() {
  ProjectOptions Opts;
  Opts.WantApprox = true;
  return Opts;
}

} // namespace

TEST(Overflow, SaturatingArithmeticSetsFlag) {
  FlagReset Reset;
  int64_t Big = CoeffCap - 1;
  EXPECT_EQ(checkedAdd(Big, Big), CoeffCap);
  EXPECT_TRUE(arithOverflowFlag());
  arithOverflowFlag() = false;
  EXPECT_EQ(checkedMul(Big, -4), -CoeffCap);
  EXPECT_TRUE(arithOverflowFlag());
  arithOverflowFlag() = false;
  EXPECT_EQ(checkedAdd(3, 4), 7);
  EXPECT_FALSE(arithOverflowFlag());
}

TEST(Overflow, OverflowScopeRestoresOuterState) {
  FlagReset Reset;
  arithOverflowFlag() = true; // outer context already overflowed
  {
    OverflowScope Scope;
    EXPECT_FALSE(arithOverflowFlag()); // cleared for the inner computation
    checkedAdd(CoeffCap, CoeffCap);
    EXPECT_TRUE(Scope.overflowed());
  }
  EXPECT_TRUE(arithOverflowFlag()); // outer state preserved

  arithOverflowFlag() = false;
  {
    OverflowScope Scope;
    EXPECT_FALSE(Scope.overflowed());
  }
  EXPECT_FALSE(arithOverflowFlag());
}

TEST(Overflow, SatisfiabilityConservativeOnBlowup) {
  OmegaContext Ctx;
  FlagReset Reset;
  Problem P = blowupProblem();
  // Whatever the true answer, the call must terminate and must not leak
  // the flag into the caller's clean scope as a crash.
  EXPECT_TRUE(isSatisfiable(P, Ctx)); // conservative "maybe" (or genuinely sat)
}

TEST(Overflow, ProjectionPoisonReported) {
  OmegaContext Ctx;
  FlagReset Reset;
  Problem P = blowupProblem();
  ProjectionResult R = projectOnto(P, {0}, Ctx, withApprox());
  ASSERT_TRUE(R.Approx);
  if (R.Poisoned) {
    EXPECT_FALSE(R.Approx->Exact);
  }
  // Either way the range of v0 is sound: when poisoned it must be open.
  IntRange Range = computeVarRange(P, 0, Ctx);
  if (R.Poisoned) {
    EXPECT_FALSE(Range.HasMin);
    EXPECT_FALSE(Range.HasMax);
  }
}

// A poisoned projection's approximation is its unprojected input, as is:
// polishing it with redundancy removal would cost satisfiability tests and
// buy nothing. Eliminating y cross-multiplies two coprime coefficients
// near 3 * 10^9, past the saturation cap.
TEST(Overflow, PoisonedApproxIsTheUnpolishedInput) {
  FlagReset Reset;
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{Y, 3037000493}, {X, -3037000453}}, 0);
  P.addGEQ({{Y, -3037000453}, {X, 3037000493}}, 5);
  P.addGEQ({{X, 1}}, 0);
  P.addGEQ({{X, -1}}, 1000);
  P.addGEQ({{X, 1}}, 1); // x >= -1: redundant, and kept
  OmegaContext Plain, Asked;
  ProjectionResult R = projectOnto(P, {X}, Plain);
  ProjectionResult A = projectOnto(P, {X}, Asked, withApprox());
  ASSERT_TRUE(R.Poisoned);
  ASSERT_TRUE(A.Poisoned);
  EXPECT_FALSE(R.Approx);
  ASSERT_TRUE(A.Approx);
  EXPECT_FALSE(A.Approx->Exact);
  EXPECT_EQ(A.Approx->Shadow.toString(), P.toString());
  // The approximation costs no satisfiability test at all.
  EXPECT_EQ(Asked.Stats.SatisfiabilityCalls, Plain.Stats.SatisfiabilityCalls);
}

TEST(Overflow, NormalOperationsDoNotPoison) {
  OmegaContext Ctx;
  FlagReset Reset;
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{X, 3}, {Y, 5}}, -7);
  P.addGEQ({{X, -2}, {Y, 9}}, 11);
  P.addGEQ({{Y, -1}}, 30);
  ProjectionResult R = projectOnto(P, {X}, Ctx);
  EXPECT_FALSE(R.Poisoned);
  EXPECT_FALSE(arithOverflowFlag());
}
