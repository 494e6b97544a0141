//===- tests/GistTest.cpp -------------------------------------------------===//
//
// Unit and property tests for gist computation and implication checks
// (Section 3.3 of the paper).
//
//===----------------------------------------------------------------------===//

#include "omega/Gist.h"

#include "omega/Projection.h"
#include "omega/Satisfiability.h"
#include "TestUtils.h"

#include <gtest/gtest.h>

using namespace omega;
using namespace omega::testutil;

namespace {

/// Shared two-variable layout for p and q.
struct Space {
  Problem Layout;
  VarId X, Y;
  Space() {
    X = Layout.addVar("x");
    Y = Layout.addVar("y");
  }
  Problem fresh() const { return Layout.cloneLayout(); }
};

} // namespace

TEST(Gist, TrueWhenImplied) {
  OmegaContext Ctx;
  Space S;
  Problem P = S.fresh();
  P.addGEQ({{S.X, 1}}, 0); // x >= 0
  Problem Q = S.fresh();
  Q.addGEQ({{S.X, 1}}, -5); // x >= 5
  Problem G = gist(P, Q, Ctx);
  EXPECT_EQ(G.getNumConstraints(), 0u) << G.toString();
  EXPECT_TRUE(implies(Q, P, Ctx));
}

TEST(Gist, KeepsNewInformation) {
  OmegaContext Ctx;
  Space S;
  Problem P = S.fresh();
  P.addGEQ({{S.X, 1}}, -5); // x >= 5
  Problem Q = S.fresh();
  Q.addGEQ({{S.X, 1}}, 0); // x >= 0
  Problem G = gist(P, Q, Ctx);
  ASSERT_EQ(G.getNumConstraints(), 1u);
  EXPECT_EQ(G.toString(), "{ x >= 5 }");
  EXPECT_FALSE(implies(Q, P, Ctx));
}

TEST(Gist, DropsOnlyRedundantParts) {
  OmegaContext Ctx;
  Space S;
  Problem P = S.fresh();
  P.addGEQ({{S.X, 1}}, 0);  // x >= 0 (implied by q)
  P.addGEQ({{S.Y, -1}}, 9); // y <= 9 (new)
  Problem Q = S.fresh();
  Q.addGEQ({{S.X, 1}}, -3); // x >= 3
  Problem G = gist(P, Q, Ctx);
  ASSERT_EQ(G.getNumConstraints(), 1u);
  EXPECT_EQ(G.toString(), "{ -y >= -9 }");
}

TEST(Gist, EqualitySplitAndRemerged) {
  OmegaContext Ctx;
  Space S;
  Problem P = S.fresh();
  P.addEQ({{S.X, 1}, {S.Y, -1}}, 0); // x == y
  Problem Q = S.fresh();
  Q.addGEQ({{S.X, 1}, {S.Y, -1}}, 0); // x >= y
  Problem G = gist(P, Q, Ctx);
  // Only the half "x <= y" is new; together with q it restores x == y.
  ASSERT_EQ(G.getNumConstraints(), 1u);
  EXPECT_TRUE(G.constraints().front().isInequality());

  Problem Check = Q;
  for (const Constraint &Row : G.constraints())
    Check.addConstraint(Row);
  ASSERT_EQ(Check.normalize(), Problem::NormalizeResult::Ok);
  EXPECT_EQ(Check.getNumEQs(), 1u);
}

TEST(Gist, InconsistentCombinationIsFalse) {
  OmegaContext Ctx;
  Space S;
  Problem P = S.fresh();
  P.addGEQ({{S.X, 1}}, -5); // x >= 5
  Problem Q = S.fresh();
  Q.addGEQ({{S.X, -1}}, 2); // x <= 2
  Problem G = gist(P, Q, Ctx);
  // p && q is unsatisfiable: the gist is False.
  EXPECT_FALSE(isSatisfiable(G, Ctx));
}

TEST(Gist, PairImpliedConstraintDropped) {
  OmegaContext Ctx;
  Space S;
  Problem P = S.fresh();
  P.addGEQ({{S.X, 1}, {S.Y, 1}}, -2); // x + y >= 2: implied by pair below
  Problem Q = S.fresh();
  Q.addGEQ({{S.X, 1}}, -1); // x >= 1
  Q.addGEQ({{S.Y, 1}}, -1); // y >= 1
  Problem G = gist(P, Q, Ctx);
  EXPECT_EQ(G.getNumConstraints(), 0u) << G.toString();
}

TEST(Gist, NaiveGistIsExactAndMinimal) {
  OmegaContext Ctx;
  // Half of a random problem's rows given the other half: the gist keeps
  // the gist equation on the box, and no row it keeps is implied by the
  // context and its other rows.
  std::mt19937 Rng(77);
  RandomProblemConfig Cfg;
  Cfg.NumVars = 2;
  Cfg.NumEQs = 0;
  Cfg.NumGEQs = 3;
  for (unsigned T = 0; T != 100; ++T) {
    Problem P = randomProblem(Rng, Cfg);
    Problem Q = P.cloneLayout();
    Problem PPart = P.cloneLayout();
    unsigned I = 0;
    for (const Constraint &Row : P.constraints())
      ((I++ % 2) ? Q : PPart).addConstraint(Row);

    Problem G = gist(PPart, Q, Ctx);
    for (int64_t X = -8; X <= 8; ++X)
      for (int64_t Y = -8; Y <= 8; ++Y) {
        std::vector<int64_t> Pt = {X, Y};
        if (!evalProblem(Q, Pt))
          continue;
        EXPECT_EQ(evalProblem(G, Pt), evalProblem(PPart, Pt))
            << "gist equation broken at trial " << T;
      }
    // An inconsistent p && q has the gist False, which is not a row to
    // test.
    if (!isSatisfiable(P, Ctx))
      continue;
    for (unsigned K = 0; K != G.getNumConstraints(); ++K) {
      Problem Rest = Q;
      for (unsigned J = 0; J != G.getNumConstraints(); ++J)
        if (J != K)
          Rest.addConstraint(G.constraints()[J]);
      std::vector<Constraint> Neg;
      appendNegationBranches(G.constraints()[K], Neg);
      bool Needed = false;
      for (const Constraint &Branch : Neg) {
        Problem Test = Rest;
        Test.addConstraint(Branch);
        Needed |= isSatisfiable(std::move(Test), Ctx);
      }
      EXPECT_TRUE(Needed) << "trial " << T << ": redundant row " << K
                          << " in " << G.toString();
    }
  }
}

TEST(Implies, BasicDirections) {
  OmegaContext Ctx;
  Space S;
  Problem Narrow = S.fresh();
  Narrow.addGEQ({{S.X, 1}}, -2);
  Narrow.addGEQ({{S.X, -1}}, 4); // 2 <= x <= 4
  Problem Wide = S.fresh();
  Wide.addGEQ({{S.X, 1}}, 0);
  Wide.addGEQ({{S.X, -1}}, 10); // 0 <= x <= 10
  EXPECT_TRUE(implies(Narrow, Wide, Ctx));
  EXPECT_FALSE(implies(Wide, Narrow, Ctx));
}

TEST(Implies, WithEqualityOnRight) {
  OmegaContext Ctx;
  Space S;
  Problem Q = S.fresh();
  Q.addGEQ({{S.X, 1}, {S.Y, -1}}, 0);  // x >= y
  Q.addGEQ({{S.X, -1}, {S.Y, 1}}, 0);  // x <= y
  Problem P = S.fresh();
  P.addEQ({{S.X, 1}, {S.Y, -1}}, 0);   // x == y
  EXPECT_TRUE(implies(Q, P, Ctx));
}

TEST(Implies, UnsatisfiableLeftImpliesAnything) {
  OmegaContext Ctx;
  Space S;
  Problem Q = S.fresh();
  Q.addGEQ({{S.X, 1}}, -5);
  Q.addGEQ({{S.X, -1}}, 2); // empty
  Problem P = S.fresh();
  P.addEQ({{S.Y, 1}}, -77);
  EXPECT_TRUE(implies(Q, P, Ctx));
}

TEST(Implies, IntegerReasoningRequired) {
  OmegaContext Ctx;
  Space S;
  // q: x == 2y (x even). p: x != 1 is not expressible; instead check
  // q => {0 <= x - 2y <= 0} trivially and a parity-sensitive case:
  // q2: 2 <= 2y <= 4 implies 1 <= y <= 2.
  Problem Q = S.fresh();
  Q.addGEQ({{S.Y, 2}}, -2);
  Q.addGEQ({{S.Y, -2}}, 4);
  Problem P = S.fresh();
  P.addGEQ({{S.Y, 1}}, -1);
  P.addGEQ({{S.Y, -1}}, 2);
  EXPECT_TRUE(implies(Q, P, Ctx));
}

TEST(ImpliesUnion, CoversByCases) {
  OmegaContext Ctx;
  Space S;
  // p: 0 <= x <= 5. q1: x <= 2. q2: x >= 3. Union covers p.
  Problem P = S.fresh();
  P.addGEQ({{S.X, 1}}, 0);
  P.addGEQ({{S.X, -1}}, 5);
  Problem Q1 = S.fresh();
  Q1.addGEQ({{S.X, -1}}, 2);
  Problem Q2 = S.fresh();
  Q2.addGEQ({{S.X, 1}}, -3);
  EXPECT_TRUE(impliesUnion(P, {Q1, Q2}, Ctx));
  // Neither disjunct alone suffices.
  EXPECT_FALSE(impliesUnion(P, {Q1}, Ctx));
  EXPECT_FALSE(impliesUnion(P, {Q2}, Ctx));
}

TEST(ImpliesUnion, GapBreaksCover) {
  OmegaContext Ctx;
  Space S;
  Problem P = S.fresh();
  P.addGEQ({{S.X, 1}}, 0);
  P.addGEQ({{S.X, -1}}, 5);
  Problem Q1 = S.fresh();
  Q1.addGEQ({{S.X, -1}}, 1); // x <= 1
  Problem Q2 = S.fresh();
  Q2.addGEQ({{S.X, 1}}, -3); // x >= 3; x == 2 uncovered
  EXPECT_FALSE(impliesUnion(P, {Q1, Q2}, Ctx));
}

TEST(ImpliesUnion, EmptyUnionOnlyFromFalse) {
  OmegaContext Ctx;
  Space S;
  Problem P = S.fresh();
  P.addGEQ({{S.X, 1}}, 0);
  EXPECT_FALSE(impliesUnion(P, {}, Ctx));
  Problem Empty = S.fresh();
  Empty.addGEQ({}, -1); // 0 >= 1
  EXPECT_TRUE(impliesUnion(Empty, {}, Ctx));
}

TEST(ImpliesUnion, EqualityDisjuncts) {
  OmegaContext Ctx;
  Space S;
  // p: 1 <= x <= 2 implies (x == 1 or x == 2).
  Problem P = S.fresh();
  P.addGEQ({{S.X, 1}}, -1);
  P.addGEQ({{S.X, -1}}, 2);
  Problem Q1 = S.fresh();
  Q1.addEQ({{S.X, 1}}, -1);
  Problem Q2 = S.fresh();
  Q2.addEQ({{S.X, 1}}, -2);
  EXPECT_TRUE(impliesUnion(P, {Q1, Q2}, Ctx));
}

TEST(ProjectAndGist, CombinedRedBlack) {
  OmegaContext Ctx;
  // Red: 1 <= x <= 10 && y == x. Black: 3 <= x && exists y' context.
  // After projecting y away, the red news relative to black x >= 3 is
  // x >= 1 dropped, x <= 10 kept.
  Problem C;
  VarId X = C.addVar("x");
  VarId Y = C.addVar("y");
  C.addGEQ({{X, 1}}, -1, /*Red=*/true);
  C.addGEQ({{X, -1}}, 10, /*Red=*/true);
  C.addEQ({{Y, 1}, {X, -1}}, 0, /*Red=*/true);
  C.addGEQ({{X, 1}}, -3, /*Red=*/false);

  std::vector<bool> Keep(C.getNumVars(), false);
  Keep[X] = true;
  RedGistResult R = projectAndGist(C, Keep, Ctx);
  EXPECT_TRUE(R.Exact);
  EXPECT_EQ(R.Gist.toString(), "{ [red] -x >= -10 }");
}

//===----------------------------------------------------------------------===//
// Property test: the defining equation (gist p given q) && q == p && q.
//===----------------------------------------------------------------------===//

namespace {

struct GistPropertyParam {
  RandomProblemConfig Cfg;
  unsigned Trials;
  unsigned Seed;
};

// Print a case as its seed, which is unique within each suite. The default
// printer dumps the struct's bytes, padding included, so the test names
// would change from build to build.
void PrintTo(const GistPropertyParam &Param, std::ostream *OS) {
  *OS << "seed" << Param.Seed;
}

class GistProperty : public ::testing::TestWithParam<GistPropertyParam> {};

} // namespace

TEST_P(GistProperty, GistEquationHolds) {
  OmegaContext Ctx;
  const GistPropertyParam &Param = GetParam();
  std::mt19937 Rng(Param.Seed);
  for (unsigned T = 0; T != Param.Trials; ++T) {
    Problem P = randomProblem(Rng, Param.Cfg);
    Problem Q = randomProblem(Rng, Param.Cfg);
    // Rebuild q in p's layout (randomProblem uses fresh layouts of the
    // same shape, so rows carry over directly).
    Problem QShared = P.cloneLayout();
    for (const Constraint &Row : Q.constraints())
      QShared.addConstraint(Row);

    Problem G = gist(P, QShared, Ctx);

    std::vector<VarId> Vars;
    for (VarId V = 0; V != static_cast<VarId>(Param.Cfg.NumVars); ++V)
      Vars.push_back(V);
    bool Failed = forEachPoint(
        P.getNumVars(), Vars, -Param.Cfg.Box, Param.Cfg.Box,
        [&](const std::vector<int64_t> &Pt) {
          if (!evalProblem(QShared, Pt))
            return false;
          if (evalProblem(G, Pt) != evalProblem(P, Pt)) {
            ADD_FAILURE() << "gist equation violated at trial " << T
                          << "\n p = " << P.toString()
                          << "\n q = " << QShared.toString()
                          << "\n g = " << G.toString();
            return true;
          }
          return false;
        });
    if (Failed)
      return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomBoxes, GistProperty,
    ::testing::Values(
        GistPropertyParam{{/*NumVars=*/2, /*NumEQs=*/0, /*NumGEQs=*/3,
                           /*CoeffRange=*/3, /*ConstRange=*/8, /*Box=*/6},
                          100, 31},
        GistPropertyParam{{/*NumVars=*/2, /*NumEQs=*/1, /*NumGEQs=*/2,
                           /*CoeffRange=*/3, /*ConstRange=*/6, /*Box=*/5},
                          100, 32},
        GistPropertyParam{{/*NumVars=*/3, /*NumEQs=*/1, /*NumGEQs=*/3,
                           /*CoeffRange=*/2, /*ConstRange=*/6, /*Box=*/4},
                          60, 33}));

namespace {

class ImpliesProperty : public ::testing::TestWithParam<GistPropertyParam> {};

} // namespace

TEST_P(ImpliesProperty, AgreesWithBruteForce) {
  OmegaContext Ctx;
  const GistPropertyParam &Param = GetParam();
  std::mt19937 Rng(Param.Seed);
  for (unsigned T = 0; T != Param.Trials; ++T) {
    Problem Q = randomProblem(Rng, Param.Cfg);
    Problem P0 = randomProblem(Rng, Param.Cfg);
    Problem P = Q.cloneLayout();
    // Use a weaker p half the time so both outcomes occur.
    unsigned I = 0;
    for (const Constraint &Row : P0.constraints())
      if (T % 2 == 0 || (I++ % 2) == 0)
        P.addConstraint(Row);

    bool Actual = implies(Q, P, Ctx);

    std::vector<VarId> Vars;
    for (VarId V = 0; V != static_cast<VarId>(Param.Cfg.NumVars); ++V)
      Vars.push_back(V);
    bool Counterexample = forEachPoint(
        Q.getNumVars(), Vars, -Param.Cfg.Box, Param.Cfg.Box,
        [&](const std::vector<int64_t> &Pt) {
          return evalProblem(Q, Pt) && !evalProblem(P, Pt);
        });
    ASSERT_EQ(Actual, !Counterexample)
        << "trial " << T << "\n q = " << Q.toString()
        << "\n p = " << P.toString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomBoxes, ImpliesProperty,
    ::testing::Values(
        GistPropertyParam{{/*NumVars=*/2, /*NumEQs=*/0, /*NumGEQs=*/3,
                           /*CoeffRange=*/3, /*ConstRange=*/8, /*Box=*/6},
                          100, 41},
        GistPropertyParam{{/*NumVars=*/3, /*NumEQs=*/1, /*NumGEQs=*/2,
                           /*CoeffRange=*/2, /*ConstRange=*/6, /*Box=*/4},
                          60, 42}));
