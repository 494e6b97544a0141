//===- tests/SatisfiabilityTest.cpp ---------------------------------------===//
//
// Unit and property tests for the Omega test satisfiability procedure.
//
//===----------------------------------------------------------------------===//

#include "omega/Satisfiability.h"

#include "TestUtils.h"

#include <gtest/gtest.h>

using namespace omega;
using namespace omega::testutil;

TEST(Satisfiability, EmptyProblemIsSat) {
  OmegaContext Ctx;
  Problem P;
  P.addVar("x");
  EXPECT_TRUE(isSatisfiable(P, Ctx));
}

TEST(Satisfiability, SimpleInterval) {
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  P.addGEQ({{X, 1}}, -2); // x >= 2
  P.addGEQ({{X, -1}}, 5); // x <= 5
  EXPECT_TRUE(isSatisfiable(P, Ctx));

  Problem Q;
  X = Q.addVar("x");
  Q.addGEQ({{X, 1}}, -6); // x >= 6
  Q.addGEQ({{X, -1}}, 5); // x <= 5
  EXPECT_FALSE(isSatisfiable(Q, Ctx));
}

TEST(Satisfiability, IntegerGapDetected) {
  OmegaContext Ctx;
  // 2 <= 3x <= 4 has the rational solutions [2/3, 4/3] but only x == 1.
  Problem P;
  VarId X = P.addVar("x");
  P.addGEQ({{X, 3}}, -2);
  P.addGEQ({{X, -3}}, 4);
  EXPECT_TRUE(isSatisfiable(P, Ctx));

  // 4 <= 3x <= 5 contains no integer multiple of 3.
  Problem Q;
  X = Q.addVar("x");
  Q.addGEQ({{X, 3}}, -4);
  Q.addGEQ({{X, -3}}, 5);
  EXPECT_FALSE(isSatisfiable(Q, Ctx));
}

TEST(Satisfiability, ClassicDarkShadowExample) {
  OmegaContext Ctx;
  // The well-known 2-variable example with rational but no integer
  // solutions: 27 <= 11x + 13y <= 45, -10 <= 7x - 9y <= 4 [Pug91].
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{X, 11}, {Y, 13}}, -27);
  P.addGEQ({{X, -11}, {Y, -13}}, 45);
  P.addGEQ({{X, 7}, {Y, -9}}, 10);
  P.addGEQ({{X, -7}, {Y, 9}}, 4);
  EXPECT_FALSE(isSatisfiable(P, Ctx));
}

TEST(Satisfiability, RealShadowOnlyIsOptimistic) {
  OmegaContext Ctx;
  // The same system is "satisfiable" under the real relaxation.
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{X, 11}, {Y, 13}}, -27);
  P.addGEQ({{X, -11}, {Y, -13}}, 45);
  P.addGEQ({{X, 7}, {Y, -9}}, 10);
  P.addGEQ({{X, -7}, {Y, 9}}, 4);
  SatOptions Opts;
  Opts.Mode = SatMode::RealShadowOnly;
  EXPECT_TRUE(isSatisfiable(P, Ctx, Opts));
}

TEST(Satisfiability, EqualityChainSolved) {
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  VarId Z = P.addVar("z");
  P.addEQ({{X, 1}, {Y, -1}}, 0); // x == y
  P.addEQ({{Y, 1}, {Z, -1}}, 1); // y == z - 1
  P.addGEQ({{X, 1}}, -5);         // x >= 5
  P.addGEQ({{Z, -1}}, 5);         // z <= 5
  EXPECT_FALSE(isSatisfiable(P, Ctx)); // x >= 5 forces z >= 6
}

TEST(Satisfiability, NonUnitEqualityNeedsModHat) {
  OmegaContext Ctx;
  // 3x + 5y == 1 is solvable over Z (e.g. x == 2, y == -1).
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addEQ({{X, 3}, {Y, 5}}, -1);
  EXPECT_TRUE(isSatisfiable(P, Ctx));

  // 6x + 10y == 1 is not (gcd 2 does not divide 1).
  Problem Q;
  X = Q.addVar("x");
  Y = Q.addVar("y");
  Q.addEQ({{X, 6}, {Y, 10}}, -1);
  EXPECT_FALSE(isSatisfiable(Q, Ctx));
}

TEST(Satisfiability, ModHatWithBounds) {
  OmegaContext Ctx;
  // 3x + 5y == 1 with 0 <= x, y <= 10: no solution in the box? Check:
  // x=2,y=-1 out; x=7,y=-4 out; y must satisfy 5y == 1-3x; 1-3x in
  // [-29, 1]; need multiple of 5: 1-3x in {-25,-20,-15,-10,-5,0}
  // => 3x in {26,21,16,11,6,1} => x == 2 gives 3x=6, y=-1 < 0. x == 7
  // gives 21, y = -4. None with y >= 0.
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addEQ({{X, 3}, {Y, 5}}, -1);
  for (VarId V : {X, Y}) {
    P.addGEQ({{V, 1}}, 0);
    P.addGEQ({{V, -1}}, 10);
  }
  EXPECT_FALSE(isSatisfiable(P, Ctx));

  // Enlarging the box to allow x == 12, y == -7... still y < 0. Instead
  // allow y negative: -5 <= y.
  Problem Q;
  X = Q.addVar("x");
  Y = Q.addVar("y");
  Q.addEQ({{X, 3}, {Y, 5}}, -1);
  Q.addGEQ({{X, 1}}, 0);
  Q.addGEQ({{X, -1}}, 10);
  Q.addGEQ({{Y, 1}}, 5); // y >= -5
  Q.addGEQ({{Y, -1}}, 10);
  EXPECT_TRUE(isSatisfiable(Q, Ctx)); // x == 2, y == -1
}

TEST(Satisfiability, PaperProjectionExampleFeasible) {
  OmegaContext Ctx;
  // {0 <= a <= 5, b < a <= 5b} from Section 3 of the paper.
  Problem P;
  VarId A = P.addVar("a");
  VarId B = P.addVar("b");
  P.addGEQ({{A, 1}}, 0);
  P.addGEQ({{A, -1}}, 5);
  P.addGEQ({{A, 1}, {B, -1}}, -1); // a >= b + 1
  P.addGEQ({{A, -1}, {B, 5}}, 0);  // a <= 5b
  EXPECT_TRUE(isSatisfiable(P, Ctx));
}

TEST(Satisfiability, UnboundedSystems) {
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{X, 1}, {Y, 1}}, 0); // x + y >= 0, unbounded
  EXPECT_TRUE(isSatisfiable(P, Ctx));

  Problem Q;
  X = Q.addVar("x");
  Q.addGEQ({{X, 2}}, -7); // 2x >= 7
  EXPECT_TRUE(isSatisfiable(Q, Ctx));
}

TEST(Satisfiability, ThreeVarCoupled) {
  OmegaContext Ctx;
  // x + y + z == 10, x,y,z in [0,3] -- impossible (max 9).
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  VarId Z = P.addVar("z");
  P.addEQ({{X, 1}, {Y, 1}, {Z, 1}}, -10);
  for (VarId V : {X, Y, Z}) {
    P.addGEQ({{V, 1}}, 0);
    P.addGEQ({{V, -1}}, 3);
  }
  EXPECT_FALSE(isSatisfiable(P, Ctx));

  // With bound 4 it becomes possible (4+3+3).
  Problem Q;
  X = Q.addVar("x");
  Y = Q.addVar("y");
  Z = Q.addVar("z");
  Q.addEQ({{X, 1}, {Y, 1}, {Z, 1}}, -10);
  for (VarId V : {X, Y, Z}) {
    Q.addGEQ({{V, 1}}, 0);
    Q.addGEQ({{V, -1}}, 4);
  }
  EXPECT_TRUE(isSatisfiable(Q, Ctx));
}

//===----------------------------------------------------------------------===//
// Property tests: the Omega test must agree with exhaustive enumeration on
// randomly generated boxed problems.
//===----------------------------------------------------------------------===//

namespace {

struct SatPropertyParam {
  RandomProblemConfig Cfg;
  unsigned Trials;
  unsigned Seed;
};

// Print a case as its seed, which is unique within the suite. The default
// printer dumps the struct's bytes, padding included, so the test names
// would change from build to build.
void PrintTo(const SatPropertyParam &Param, std::ostream *OS) {
  *OS << "seed" << Param.Seed;
}

class SatisfiabilityProperty
    : public ::testing::TestWithParam<SatPropertyParam> {};

} // namespace

TEST_P(SatisfiabilityProperty, AgreesWithBruteForce) {
  OmegaContext Ctx;
  const SatPropertyParam &Param = GetParam();
  std::mt19937 Rng(Param.Seed);
  for (unsigned T = 0; T != Param.Trials; ++T) {
    Problem P = randomProblem(Rng, Param.Cfg);
    bool Expected = bruteForceSat(P, -Param.Cfg.Box, Param.Cfg.Box);
    bool Actual = isSatisfiable(P, Ctx);
    ASSERT_EQ(Actual, Expected)
        << "trial " << T << ": " << P.toString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomBoxes, SatisfiabilityProperty,
    ::testing::Values(
        // Small dense systems with equalities: exercises mod-hat.
        SatPropertyParam{{/*NumVars=*/2, /*NumEQs=*/1, /*NumGEQs=*/2,
                          /*CoeffRange=*/3, /*ConstRange=*/8, /*Box=*/6},
                         200, 1},
        // Pure inequalities with larger coefficients: exercises dark
        // shadow and splintering.
        SatPropertyParam{{/*NumVars=*/2, /*NumEQs=*/0, /*NumGEQs=*/4,
                          /*CoeffRange=*/5, /*ConstRange=*/12, /*Box=*/8},
                         200, 2},
        // Three variables, mixed rows.
        SatPropertyParam{{/*NumVars=*/3, /*NumEQs=*/1, /*NumGEQs=*/3,
                          /*CoeffRange=*/3, /*ConstRange=*/8, /*Box=*/5},
                         150, 3},
        // Three variables, inequality-heavy.
        SatPropertyParam{{/*NumVars=*/3, /*NumEQs=*/0, /*NumGEQs=*/6,
                          /*CoeffRange=*/4, /*ConstRange=*/10, /*Box=*/4},
                         150, 4},
        // Four variables, small box.
        SatPropertyParam{{/*NumVars=*/4, /*NumEQs=*/1, /*NumGEQs=*/4,
                          /*CoeffRange=*/2, /*ConstRange=*/6, /*Box=*/3},
                         100, 5},
        // Two equalities: chained substitutions.
        SatPropertyParam{{/*NumVars=*/3, /*NumEQs=*/2, /*NumGEQs=*/2,
                          /*CoeffRange=*/3, /*ConstRange=*/6, /*Box=*/5},
                         150, 6}));
