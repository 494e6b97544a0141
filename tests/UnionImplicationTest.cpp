//===- tests/UnionImplicationTest.cpp -------------------------------------===//
//
// Property tests for the disjunctive-implication machinery the Section 4
// analyses ride on: negateProblem and impliesUnion, checked against
// brute-force enumeration.
//
//===----------------------------------------------------------------------===//

#include "omega/Gist.h"

#include "obs/Trace.h"
#include "omega/Projection.h"
#include "omega/Satisfiability.h"
#include "TestUtils.h"

#include <gtest/gtest.h>

using namespace omega;
using namespace omega::testutil;

namespace {

/// Membership of a full point in a problem with existential wildcards:
/// pin the protected variables, leave the rest to the solver.
bool containsPoint(const Problem &P, const std::vector<int64_t> &Point) {
  OmegaContext Ctx;
  Problem Pinned = P;
  for (VarId V = 0; V != static_cast<VarId>(Point.size()); ++V) {
    if (static_cast<unsigned>(V) >= P.getNumVars() || !P.isProtected(V))
      continue;
    Pinned.addEQ({{V, 1}}, -Point[V]);
  }
  return isSatisfiable(std::move(Pinned), Ctx);
}

} // namespace

TEST(NegateProblem, PlainRows) {
  Problem P;
  VarId X = P.addVar("x");
  P.addGEQ({{X, 1}}, -2); // x >= 2
  P.addGEQ({{X, -1}}, 5); // x <= 5
  auto Neg = negateProblem(P);
  ASSERT_TRUE(Neg.has_value());
  // not (2 <= x <= 5) == (x <= 1) or (x >= 6).
  for (int64_t V = -3; V <= 9; ++V) {
    bool In = false;
    for (const Problem &Piece : *Neg)
      In |= containsPoint(Piece, {V});
    EXPECT_EQ(In, V < 2 || V > 5) << "x = " << V;
  }
}

TEST(NegateProblem, StrideRow) {
  // exists w: x == 3w  --> negation: x % 3 != 0.
  Problem P;
  VarId X = P.addVar("x");
  VarId W = P.addVar("w", /*Protected=*/false);
  P.addEQ({{X, 1}, {W, -3}}, 0);
  auto Neg = negateProblem(P);
  ASSERT_TRUE(Neg.has_value());
  for (int64_t V = -7; V <= 7; ++V) {
    bool In = false;
    for (const Problem &Piece : *Neg)
      In |= containsPoint(Piece, {V});
    EXPECT_EQ(In, ((V % 3) + 3) % 3 != 0) << "x = " << V;
  }
}

TEST(NegateProblem, UnsupportedWildcardShape) {
  // The wildcard appears in an inequality: not a simple stride.
  Problem P;
  VarId X = P.addVar("x");
  VarId W = P.addVar("w", /*Protected=*/false);
  P.addGEQ({{X, 1}, {W, -2}}, 0);
  EXPECT_FALSE(negateProblem(P).has_value());
}

TEST(NegateProblem, UnitWildcardEqualityIsVacuous) {
  // exists w: x + w == 0 is always true; its negation is empty (False).
  Problem P;
  VarId X = P.addVar("x");
  VarId W = P.addVar("w", /*Protected=*/false);
  P.addEQ({{X, 1}, {W, 1}}, 0);
  auto Neg = negateProblem(P);
  ASSERT_TRUE(Neg.has_value());
  EXPECT_TRUE(Neg->empty());
}

//===----------------------------------------------------------------------===//
// impliesUnion property: agreement with pointwise evaluation.
//===----------------------------------------------------------------------===//

namespace {

/// Which kind of P's rows every disjunct copies. The negation branches of
/// an exact or looser copy are contradicted by P itself, so the union
/// check drops them before its search; a disjunct made only of such a
/// copy is implied outright.
enum class SharedRow { None, Inequality, Equality, Stride };

struct UnionParam {
  unsigned Trials;
  unsigned Seed;
  unsigned NumDisjuncts;
};

class UnionImplicationProperty
    : public ::testing::TestWithParam<UnionParam> {};

/// A sibling fixture rather than a field of UnionParam: the older cases'
/// names print their parameter's bytes, so UnionParam keeps its layout.
struct SharedRowParam {
  UnionParam Base;
  SharedRow Shared;
};

class UnionImplicationSharedRows
    : public ::testing::TestWithParam<SharedRowParam> {};

/// Membership of the point (x, y) in \p Q, enumerating any wildcard
/// columns over a range wide enough for the strides built below.
bool contains(const Problem &Q, int64_t X, int64_t Y) {
  std::vector<int64_t> Pt(Q.getNumVars(), 0);
  Pt[0] = X;
  Pt[1] = Y;
  std::vector<VarId> Wildcards;
  for (VarId V = 2, E = Q.getNumVars(); V != static_cast<VarId>(E); ++V)
    Wildcards.push_back(V);
  return forEachPointFrom(Pt, Wildcards, -12, 12,
                          [&](const std::vector<int64_t> &Full) {
                            return evalProblem(Q, Full);
                          });
}

/// Trials whose union search spent more satisfiability calls than the
/// budget after which impliesUnion probes for a witness, by verdict.
struct PastBudget {
  unsigned Implied = 0, Refuted = 0;
};

/// The satisfiability calls after which impliesUnion runs its witness
/// probe: four per variable of P and per disjunct.
uint64_t probeBudget(const Problem &P, size_t NumDisjuncts) {
  return 4 * (P.getNumVars() + NumDisjuncts);
}

/// Draws random P and unions Q1 v ... v Qn and checks impliesUnion against
/// pointwise evaluation; with \p Shared, every disjunct copies a row of P.
/// \p Tally, when given, counts the trials that passed the probe budget.
void checkAgainstBruteForce(const UnionParam &Param, SharedRow Shared,
                            PastBudget *Tally = nullptr) {
  std::mt19937 Rng(Param.Seed);
  RandomProblemConfig Cfg;
  Cfg.NumVars = 2;
  Cfg.NumEQs = Shared == SharedRow::Equality ? 1 : 0;
  Cfg.NumGEQs = 2;
  Cfg.Box = 5;

  unsigned ImpliedOutright = 0; // trials the pre-pass alone decided
  for (unsigned T = 0; T != Param.Trials; ++T) {
    Problem P = randomProblem(Rng, Cfg);
    if (Shared == SharedRow::Stride) {
      // exists w: x + c == a*w, with a in {2, 3}.
      VarId W = P.addWildcard();
      int64_t A = 2 + static_cast<int64_t>(Rng() % 2);
      P.addEQ({{0, 1}, {W, -A}}, static_cast<int64_t>(Rng() % 5) - 2);
    }
    // The rows of P a disjunct may copy for this parameter.
    std::vector<const Constraint *> Copyable;
    for (const Constraint &Row : P.constraints()) {
      bool Strided = P.getNumVars() > 2 && Row.involves(2);
      bool Wanted = Shared == SharedRow::Inequality
                        ? Row.isInequality()
                    : Shared == SharedRow::Equality
                        ? Row.isEquality()
                        : Strided;
      if (Wanted)
        Copyable.push_back(&Row);
    }

    std::vector<Problem> Qs;
    for (unsigned I = 0; I != Param.NumDisjuncts; ++I) {
      // Build each disjunct in P's layout from random rows (without the
      // box bounds so the union is usually a strict subset).
      Problem Raw = randomProblem(Rng, Cfg);
      Problem Q = P.cloneLayout();
      if (Shared != SharedRow::None) {
        // The copy is one tighter, exact or one looser, so the pre-pass
        // is checked on both sides of its boundary.
        Constraint Copy = *Copyable[Rng() % Copyable.size()];
        Copy.addToConstant(static_cast<int64_t>(Rng() % 3) - 1);
        Q.addConstraint(Copy);
        // Half the disjuncts are a copy alone: P implies them outright.
        if (Rng() % 2) {
          Constraint Row = Raw.constraints()[Cfg.NumEQs];
          Row.resizeVars(Q.getNumVars());
          Q.addConstraint(Row);
        }
        Qs.push_back(std::move(Q));
        continue;
      }
      unsigned Count = 0;
      for (const Constraint &Row : Raw.constraints())
        if (Count++ < Cfg.NumGEQs)
          Q.addConstraint(Row);
      Qs.push_back(std::move(Q));
    }

    OmegaContext Ctx;
    bool Actual = impliesUnion(P, Qs, Ctx);
    ImpliedOutright += Actual && Ctx.Stats.SatisfiabilityCalls == 0;
    bool Expected = true;
    for (int64_t X = -Cfg.Box; X <= Cfg.Box && Expected; ++X)
      for (int64_t Y = -Cfg.Box; Y <= Cfg.Box && Expected; ++Y) {
        if (!contains(P, X, Y))
          continue;
        bool InUnion = false;
        for (const Problem &Q : Qs)
          InUnion |= contains(Q, X, Y);
        Expected = InUnion;
      }
    ASSERT_EQ(Actual, Expected) << "trial " << T << " p=" << P.toString();
    if (Tally && Ctx.Stats.SatisfiabilityCalls > probeBudget(P, Qs.size()))
      ++(Actual ? Tally->Implied : Tally->Refuted);
  }
  if (Shared != SharedRow::None && Shared != SharedRow::Stride) {
    EXPECT_GT(ImpliedOutright, 0u) << "the pre-pass exit was never taken";
  }
}

} // namespace

TEST_P(UnionImplicationProperty, AgreesWithBruteForce) {
  checkAgainstBruteForce(GetParam(), SharedRow::None);
}

TEST_P(UnionImplicationSharedRows, AgreesWithBruteForce) {
  checkAgainstBruteForce(GetParam().Base, GetParam().Shared);
}

INSTANTIATE_TEST_SUITE_P(RandomUnions, UnionImplicationProperty,
                         ::testing::Values(UnionParam{120, 51, 1},
                                           UnionParam{120, 52, 2},
                                           UnionParam{80, 53, 3}));

INSTANTIATE_TEST_SUITE_P(
    SharedRows, UnionImplicationSharedRows,
    ::testing::Values(SharedRowParam{{120, 61, 2}, SharedRow::Inequality},
                      SharedRowParam{{120, 62, 2}, SharedRow::Equality},
                      SharedRowParam{{80, 63, 2}, SharedRow::Stride}),
    [](const ::testing::TestParamInfo<SharedRowParam> &I) {
      switch (I.param.Shared) {
      case SharedRow::Inequality:
        return std::string("inequality");
      case SharedRow::Equality:
        return std::string("equality");
      default:
        return std::string("stride");
      }
    });

// The sat-free pre-pass: every negation branch of a disjunct built from
// P's own rows is contradicted by P, so the implication holds with no
// satisfiability call at all.
TEST(UnionImplication, ImpliedDisjunctMakesNoSatCall) {
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{X, 1}}, -1);         // x >= 1
  P.addGEQ({{X, -1}}, 9);         // x <= 9
  P.addEQ({{X, 1}, {Y, -1}}, 2);  // y == x + 2
  P.addGEQ({{X, 1}, {Y, 1}}, -3); // x + y >= 3
  Problem Q = P.cloneLayout();
  Q.addGEQ({{X, 1}}, 0);         // x >= 0: implied by x >= 1
  Q.addEQ({{X, 1}, {Y, -1}}, 2); // P's equality
  Problem Far = P.cloneLayout();
  Far.addGEQ({{Y, 1}}, -50); // y >= 50: not implied, branch kept

  OmegaContext Ctx;
  EXPECT_TRUE(impliesUnion(P, {Far, Q}, Ctx));
  EXPECT_EQ(Ctx.Stats.SatisfiabilityCalls, 0u);
}

//===----------------------------------------------------------------------===//
// The witness probe: once the union search has spent its budget, one point
// of P is tested against every disjunct.
//===----------------------------------------------------------------------===//

namespace {

/// A sibling fixture for unions of many disjuncts, named by seed and size.
class UnionImplicationManyDisjuncts
    : public ::testing::TestWithParam<UnionParam> {};

/// 0 <= x, y <= 8 and the nine 3x3 cells that tile it. With \p Hole, the
/// bottom left cell starts at y == 1, so the points (0..2, 0) are covered
/// by no cell. Each cell lists its upper bounds first, so the search tries
/// the top and the right of every cell first and reaches the hole last;
/// findSolution pins each variable to its least value, so the probe's
/// point is (0, 0).
struct Grid {
  Problem P;
  std::vector<Problem> Cells;

  explicit Grid(bool Hole) {
    VarId X = P.addVar("x");
    VarId Y = P.addVar("y");
    P.addGEQ({{X, 1}}, 0);
    P.addGEQ({{X, -1}}, 8);
    P.addGEQ({{Y, 1}}, 0);
    P.addGEQ({{Y, -1}}, 8);
    for (int64_t Row = 0; Row != 3; ++Row)
      for (int64_t Col = 0; Col != 3; ++Col) {
        int64_t Bottom = 3 * Row + (Hole && Row == 0 && Col == 0);
        Problem Q = P.cloneLayout();
        Q.addGEQ({{X, -1}}, 3 * Col + 2);
        Q.addGEQ({{Y, -1}}, 3 * Row + 2);
        Q.addGEQ({{X, 1}}, -3 * Col);
        Q.addGEQ({{Y, 1}}, -Bottom);
        Cells.push_back(std::move(Q));
      }
  }

  /// Brute force over the 9x9 box: is every point of P in some cell?
  bool covered() const {
    for (int64_t X = 0; X <= 8; ++X)
      for (int64_t Y = 0; Y <= 8; ++Y) {
        bool In = false;
        for (const Problem &Q : Cells)
          In |= evalProblem(Q, {X, Y});
        if (!In)
          return false;
      }
    return true;
  }
};

} // namespace

// A false implication over nine disjuncts: the search meets its
// counterexample late, so the probe's point (0, 0) ends it.
TEST(UnionProbe, LateCounterexampleIsRefutedWithinBound) {
  Grid G(/*Hole=*/true);
  ASSERT_FALSE(G.covered());
  OmegaContext Ctx;
  obs::Tracer T;
  Ctx.Trace = &T.registerBuffer("test", &Ctx.Stats);
  EXPECT_FALSE(impliesUnion(G.P, G.Cells, Ctx));
  Ctx.Trace = nullptr;
  EXPECT_GT(Ctx.Stats.SatisfiabilityCalls, probeBudget(G.P, G.Cells.size()));
  // The search alone makes 359 calls before it reaches the hole; with the
  // probe at call 45 it makes 66.
  EXPECT_LE(Ctx.Stats.SatisfiabilityCalls, 100u);
  EXPECT_NE(T.explainLog().find("union probe"), std::string::npos);
}

// The same grid without the hole: the search passes the budget, the
// probe's point lies in a cell, and the search goes on to prove the union.
TEST(UnionProbe, CoveredPointLetsTheSearchProve) {
  Grid G(/*Hole=*/false);
  ASSERT_TRUE(G.covered());
  OmegaContext Ctx;
  EXPECT_TRUE(impliesUnion(G.P, G.Cells, Ctx));
  EXPECT_GT(Ctx.Stats.SatisfiabilityCalls, probeBudget(G.P, G.Cells.size()));
}

// Six strips 0..1, 2..3, ..., 10..11 cover 0 <= x <= 11. The search
// settles that within its budget, so the probe never runs and the call
// count is the search's own.
TEST(UnionProbe, TrueImplicationUnderBudgetCostsTheSearchAlone) {
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{X, 1}}, 0);
  P.addGEQ({{X, -1}}, 11);
  P.addGEQ({{Y, 1}}, 0);
  P.addGEQ({{Y, -1}}, 5);
  std::vector<Problem> Strips;
  for (int64_t I = 0; I != 6; ++I) {
    Problem Q = P.cloneLayout();
    Q.addGEQ({{X, 1}}, -2 * I);
    Q.addGEQ({{X, -1}}, 2 * I + 1);
    Strips.push_back(std::move(Q));
  }
  OmegaContext Ctx;
  EXPECT_TRUE(impliesUnion(P, Strips, Ctx));
  EXPECT_EQ(Ctx.Stats.SatisfiabilityCalls, 11u);
  EXPECT_LE(Ctx.Stats.SatisfiabilityCalls, probeBudget(P, Strips.size()));
}

TEST_P(UnionImplicationManyDisjuncts, AgreesWithBruteForce) {
  PastBudget Tally;
  checkAgainstBruteForce(GetParam(), SharedRow::None, &Tally);
  // Both of the probe's outcomes are exercised: a refutation, and a point
  // inside some disjunct after which the search proves the union.
  EXPECT_GT(Tally.Refuted, 0u);
  EXPECT_GT(Tally.Implied, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ManyDisjuncts, UnionImplicationManyDisjuncts,
    ::testing::Values(UnionParam{200, 71, 6}, UnionParam{200, 72, 8},
                      UnionParam{200, 73, 10}),
    [](const ::testing::TestParamInfo<UnionParam> &I) {
      return "seed" + std::to_string(I.param.Seed) + "_" +
             std::to_string(I.param.NumDisjuncts) + "disjuncts";
    });

//===----------------------------------------------------------------------===//
// conjoinExtending
//===----------------------------------------------------------------------===//

TEST(ConjoinExtending, RemapsWildcardsApart) {
  OmegaContext Ctx;
  Problem Layout;
  VarId X = Layout.addVar("x");

  // A: exists w: x == 2w (x even). B: exists w: x == 2w + 1 (x odd).
  Problem A = Layout.cloneLayout();
  {
    VarId W = A.addWildcard();
    A.addEQ({{X, 1}, {W, -2}}, 0);
  }
  Problem B = Layout.cloneLayout();
  {
    VarId W = B.addWildcard();
    B.addEQ({{X, 1}, {W, -2}}, -1);
  }
  // Without remapping the two wildcards would conflate and the result
  // would wrongly be satisfiable.
  Problem Both = conjoinExtending(A, B, Layout.getNumVars());
  EXPECT_FALSE(isSatisfiable(Both, Ctx));
}

TEST(ConjoinExtending, SharedProtectedColumnsJoin) {
  OmegaContext Ctx;
  Problem Layout;
  VarId X = Layout.addVar("x");
  Problem A = Layout.cloneLayout();
  A.addGEQ({{X, 1}}, -3); // x >= 3
  Problem B = Layout.cloneLayout();
  B.addGEQ({{X, -1}}, 2); // x <= 2
  EXPECT_FALSE(isSatisfiable(conjoinExtending(A, B, 1), Ctx));

  Problem C = Layout.cloneLayout();
  C.addGEQ({{X, -1}}, 9); // x <= 9
  EXPECT_TRUE(isSatisfiable(conjoinExtending(A, C, 1), Ctx));
}
