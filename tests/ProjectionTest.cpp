//===- tests/ProjectionTest.cpp -------------------------------------------===//
//
// Unit and property tests for exact integer projection.
//
//===----------------------------------------------------------------------===//

#include "omega/Projection.h"

#include "omega/Satisfiability.h"
#include "TestUtils.h"

#include <gtest/gtest.h>

using namespace omega;
using namespace omega::testutil;

namespace {

/// Membership of a partial point (over kept variables) in a projected
/// piece: pin the kept variables and ask for satisfiability (stride
/// wildcards remain existential).
bool pieceContains(const Problem &Piece, const std::vector<VarId> &Kept,
                   const std::vector<int64_t> &Point) {
  Problem Pinned = Piece;
  for (VarId V : Kept)
    Pinned.addEQ({{V, 1}}, -Point[V]);
  OmegaContext Ctx;
  return isSatisfiable(std::move(Pinned), Ctx);
}

bool unionContains(const ProjectionResult &R, const std::vector<VarId> &Kept,
                   const std::vector<int64_t> &Point) {
  for (const Problem &Piece : R.Pieces)
    if (pieceContains(Piece, Kept, Point))
      return true;
  return false;
}

/// Options that ask for the real-shadow approximation too.
ProjectOptions withApprox(bool RemoveRedundant = true) {
  ProjectOptions Opts;
  Opts.RemoveRedundant = RemoveRedundant;
  Opts.WantApprox = true;
  return Opts;
}

} // namespace

TEST(Projection, PaperSectionThreeExample) {
  OmegaContext Ctx;
  // Projecting {0 <= a <= 5; b < a <= 5b} onto a gives {2 <= a <= 5}.
  Problem P;
  VarId A = P.addVar("a");
  VarId B = P.addVar("b");
  P.addGEQ({{A, 1}}, 0);
  P.addGEQ({{A, -1}}, 5);
  P.addGEQ({{A, 1}, {B, -1}}, -1); // a >= b + 1
  P.addGEQ({{A, -1}, {B, 5}}, 0);  // a <= 5b

  ProjectionResult R = projectOnto(P, {A}, Ctx);
  ASSERT_EQ(R.Pieces.size(), 1u);
  const Problem &Piece = R.Pieces.front();
  EXPECT_EQ(Piece.toString(), "{ a >= 2; -a >= -5 }");
}

TEST(Projection, UnconstrainedVariableDrops) {
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{X, 1}}, 0);
  ProjectionResult R = projectOnto(P, {X}, Ctx, withApprox());
  ASSERT_EQ(R.Pieces.size(), 1u);
  EXPECT_FALSE(R.Pieces.front().involves(Y));
  ASSERT_TRUE(R.Approx);
  EXPECT_TRUE(R.Approx->Exact);
}

TEST(Projection, EmptyProjectionOfInfeasible) {
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{Y, 1}}, -3); // y >= 3
  P.addGEQ({{Y, -1}}, 1); // y <= 1
  (void)X;
  ProjectionResult R = projectOnto(P, {X}, Ctx);
  EXPECT_TRUE(R.isEmpty());
}

TEST(Projection, StrideSurvivesAsWildcardEquality) {
  OmegaContext Ctx;
  // project {x == 2y} onto x: x must be even.
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addEQ({{X, 1}, {Y, -2}}, 0);
  ProjectionResult R = projectOnto(P, {X}, Ctx);
  ASSERT_EQ(R.Pieces.size(), 1u);
  const Problem &Piece = R.Pieces.front();
  EXPECT_EQ(Piece.getNumEQs(), 1u);
  EXPECT_TRUE(pieceContains(Piece, {X}, {2, 0}));
  EXPECT_TRUE(pieceContains(Piece, {X}, {-4, 0}));
  EXPECT_FALSE(pieceContains(Piece, {X}, {3, 0}));
}

TEST(Projection, StrideWithCoupledInequality) {
  OmegaContext Ctx;
  // project {2x + 3y == 0, y >= 0} onto x: x <= 0 and x == 0 (mod 3).
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addEQ({{X, 2}, {Y, 3}}, 0);
  P.addGEQ({{Y, 1}}, 0);
  ProjectionResult R = projectOnto(P, {X}, Ctx);
  ASSERT_FALSE(R.isEmpty());
  for (int64_t V = -12; V <= 12; ++V) {
    bool Expected = V <= 0 && V % 3 == 0;
    EXPECT_EQ(unionContains(R, {X}, {V, 0}), Expected) << "x = " << V;
  }
}

TEST(Projection, SplinteringExample) {
  OmegaContext Ctx;
  // project {1 <= x, 5 <= 3y - x <= 7} onto ... eliminate y:
  // 3y in [x+5, x+7]; an integer y exists iff the window [x+5, x+7]
  // contains a multiple of 3, which is always true (window width 3). So
  // the projection onto x is just {x >= 1}.
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{X, 1}}, -1);
  P.addGEQ({{Y, 3}, {X, -1}}, -5);
  P.addGEQ({{Y, -3}, {X, 1}}, 7);
  ProjectionResult R = projectOnto(P, {X}, Ctx);
  for (int64_t V = -3; V <= 10; ++V)
    EXPECT_EQ(unionContains(R, {X}, {V, 0}), V >= 1) << "x = " << V;
}

TEST(Projection, SplinteringNarrowWindow) {
  OmegaContext Ctx;
  // 3y in [x+5, x+6]: a multiple of 3 exists iff x == 0 or 1 (mod 3).
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{Y, 3}, {X, -1}}, -5);
  P.addGEQ({{Y, -3}, {X, 1}}, 6);
  ProjectionResult R = projectOnto(P, {X}, Ctx, withApprox());
  ASSERT_TRUE(R.Approx);
  EXPECT_FALSE(R.Approx->Exact);
  for (int64_t V = -9; V <= 9; ++V) {
    bool Expected = ((V % 3) + 3) % 3 != 2;
    EXPECT_EQ(unionContains(R, {X}, {V, 0}), Expected) << "x = " << V;
  }
}

TEST(Projection, ComputeVarRangeSimple) {
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{X, 1}, {Y, -1}}, 0);  // x >= y
  P.addGEQ({{Y, 1}}, -2);          // y >= 2
  P.addGEQ({{X, -1}}, 9);          // x <= 9
  IntRange RX = computeVarRange(P, X, Ctx);
  EXPECT_TRUE(RX.HasMin);
  EXPECT_TRUE(RX.HasMax);
  EXPECT_EQ(RX.Min, 2);
  EXPECT_EQ(RX.Max, 9);

  IntRange RY = computeVarRange(P, Y, Ctx);
  EXPECT_EQ(RY.Min, 2);
  EXPECT_EQ(RY.Max, 9);
}

TEST(Projection, ComputeVarRangeOpenEnds) {
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  P.addGEQ({{X, 1}}, -4); // x >= 4
  IntRange R = computeVarRange(P, X, Ctx);
  EXPECT_TRUE(R.HasMin);
  EXPECT_FALSE(R.HasMax);
  EXPECT_EQ(R.Min, 4);
  EXPECT_EQ(R.toString(), "[4, +inf]");
}

TEST(Projection, ComputeVarRangeEmpty) {
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  P.addGEQ({{X, 1}}, -4);
  P.addGEQ({{X, -1}}, 2);
  IntRange R = computeVarRange(P, X, Ctx);
  EXPECT_TRUE(R.Empty);
}

// The one way a range becomes conservative: the projection overflows, and
// computeVarRange answers with the fully open range and says it is not
// exact. Eliminating y cross-multiplies two coprime coefficients near
// 3 * 10^9, past the saturation cap.
TEST(Projection, ComputeVarRangeOverflowIsNotExact) {
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{Y, 3037000493}, {X, -3037000453}}, 0);
  P.addGEQ({{Y, -3037000453}, {X, 3037000493}}, 5);
  P.addGEQ({{X, 1}}, 0);
  P.addGEQ({{X, -1}}, 1000);
  ASSERT_TRUE(projectOnto(P, {X}, Ctx).Poisoned);
  IntRange R = computeVarRange(P, X, Ctx);
  EXPECT_FALSE(R.Empty);
  EXPECT_FALSE(R.HasMin);
  EXPECT_FALSE(R.HasMax);
  EXPECT_FALSE(R.Exact);

  Problem Box;
  VarId B = Box.addVar("b");
  Box.addGEQ({{B, 1}}, 0);
  Box.addGEQ({{B, -1}}, 3);
  IntRange Exact = computeVarRange(Box, B, Ctx);
  EXPECT_TRUE(Exact.Exact);
  EXPECT_EQ(Exact.toString(), "[0, 3]");
}

namespace {

/// {x : exists w : x = Stride * w + Offset} within the given bounds on x.
Problem strideSet(int64_t Stride, int64_t Offset, bool HasLo, int64_t Lo,
                  bool HasHi, int64_t Hi) {
  Problem P;
  VarId X = P.addVar("x");
  VarId W = P.addVar("w");
  P.addEQ({{X, 1}, {W, -Stride}}, -Offset);
  if (HasLo)
    P.addGEQ({{X, 1}}, -Lo);
  if (HasHi)
    P.addGEQ({{X, -1}}, Hi);
  return P;
}

} // namespace

// A stride period past the linear probe cap (4096 values) once aborted on
// an assertion; the ends past the cap are now found by bisection. Every
// bounded case is checked against enumeration of the interval.
TEST(Projection, ComputeVarRangeWideStrideMatchesBruteForce) {
  OmegaContext Ctx;
  struct Case {
    int64_t Stride, Offset, Lo, Hi;
  };
  const Case Cases[] = {
      {5000, 0, 1, 99999},     // the omega-serve reproducer's stride
      {4000, 0, 1, 99999},     // within the cap: the walk alone
      {4097, 0, 1, 99999},     // one past the cap
      {7919, 3, -50000, 50000}, // offset lattice, negative lower end
      {65536, 1, 2, 400000},
      {9999, 0, 1, 9999},      // a single lattice point at the top
      {12345, 6, -99999, -7},  // both ends negative
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE("stride " + std::to_string(C.Stride) + " offset " +
                 std::to_string(C.Offset));
    bool Any = false;
    int64_t Min = 0, Max = 0;
    for (int64_t X = C.Lo; X <= C.Hi; ++X) {
      if ((X - C.Offset) % C.Stride != 0)
        continue;
      if (!Any)
        Min = X;
      Max = X;
      Any = true;
    }
    ASSERT_TRUE(Any);
    IntRange R =
        computeVarRange(strideSet(C.Stride, C.Offset, true, C.Lo, true, C.Hi),
                        /*x=*/0, Ctx);
    EXPECT_FALSE(R.Empty);
    EXPECT_TRUE(R.Exact);
    EXPECT_TRUE(R.HasMin && R.HasMax);
    EXPECT_EQ(R.Min, Min);
    EXPECT_EQ(R.Max, Max);
  }

  // One end open: the search gallops toward the open side.
  EXPECT_EQ(computeVarRange(strideSet(5000, 0, true, 1, false, 0), 0, Ctx)
                .toString(),
            "[5000, +inf]");
  EXPECT_EQ(computeVarRange(strideSet(5000, 7, false, 0, true, -1), 0, Ctx)
                .toString(),
            "[-inf, -4993]");
}

// A piece handed to the union overload may hold no lattice point at all;
// the search past the cap then finds none and the piece adds nothing.
TEST(Projection, ComputeVarRangeLatticeFreePieceIsEmpty) {
  OmegaContext Ctx;
  std::vector<Problem> Pieces = {strideSet(5000, 0, true, 1, true, 4999)};
  EXPECT_TRUE(computeVarRange(Pieces, 0, Ctx).Empty);
  Pieces.push_back(strideSet(5000, 0, true, 1, true, 10001));
  EXPECT_EQ(computeVarRange(Pieces, 0, Ctx).toString(), "[5000, 10000]");
}

// A union is exact only when both sides are, and an empty side does not
// launder an inexact one.
TEST(Projection, IntRangeIncludeAndsExactness) {
  IntRange Exact;
  Exact.Empty = false;
  Exact.HasMin = Exact.HasMax = true;
  Exact.Min = 0;
  Exact.Max = 3;
  IntRange Open;
  Open.Empty = false;
  Open.Exact = false;

  IntRange U = Exact;
  U.include(Exact);
  EXPECT_TRUE(U.Exact);
  U.include(Open);
  EXPECT_FALSE(U.Exact);
  EXPECT_FALSE(U.HasMin);

  IntRange FromEmpty; // empty, exact
  FromEmpty.include(Open);
  EXPECT_FALSE(FromEmpty.Exact);
  IntRange IntoEmpty = Open;
  IntoEmpty.include(IntRange());
  EXPECT_FALSE(IntoEmpty.Exact);
  IntRange EmptyInexact;
  EmptyInexact.Exact = false;
  IntRange Both = Exact;
  Both.include(EmptyInexact);
  EXPECT_FALSE(Both.Exact);
  EXPECT_EQ(Both.toString(), "[0, 3]");
}

TEST(Projection, RemoveRedundantConstraints) {
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  P.addGEQ({{X, 1}}, -2); // x >= 2
  P.addGEQ({{X, 1}}, 0);  // x >= 0, redundant
  // normalize would also catch that; make a multi-variable case instead.
  VarId Y = P.addVar("y");
  P.addGEQ({{Y, 1}}, -1);          // y >= 1
  P.addGEQ({{X, 1}, {Y, 1}}, -2);  // x + y >= 2, implied by x>=2, y>=1
  removeRedundantConstraints(P, Ctx);
  EXPECT_EQ(P.getNumConstraints(), 2u);
}

//===----------------------------------------------------------------------===//
// Where Approx comes from: an exact run's own conjunction, or the separate
// real-shadow elimination once a step splintered.
//===----------------------------------------------------------------------===//

namespace {

/// Row-for-row equality: same columns, same rows in the same order.
bool sameRows(const Problem &A, const Problem &B) {
  if (A.getNumVars() != B.getNumVars() ||
      A.constraints().size() != B.constraints().size())
    return false;
  for (unsigned I = 0, E = A.constraints().size(); I != E; ++I) {
    const Constraint &RA = A.constraints()[I], &RB = B.constraints()[I];
    if (RA.getKind() != RB.getKind() || RA.getConstant() != RB.getConstant())
      return false;
    for (VarId V = 0, VE = A.getNumVars(); V != VE; ++V)
      if (RA.getCoeff(V) != RB.getCoeff(V))
        return false;
  }
  return true;
}

bool realShadowSat(const Problem &P) {
  OmegaContext Ctx;
  SatOptions Relaxed;
  Relaxed.Mode = SatMode::RealShadowOnly;
  return isSatisfiable(P, Ctx, Relaxed);
}

} // namespace

// An exact, non-empty projection's Approx is its one piece, row for row,
// with and without redundancy removal; a splintered one's Approx is still
// a superset of the pieces. Both kinds must occur, or the test is vacuous.
TEST(Projection, ExactApproxIsTheOnePiece) {
  OmegaContext Ctx;
  std::mt19937 Rng(31);
  unsigned ExactNonEmpty = 0, Splintered = 0;
  for (unsigned T = 0; T != 150; ++T) {
    RandomProblemConfig Cfg{/*NumVars=*/3, /*NumEQs=*/T % 2,
                            /*NumGEQs=*/3,  /*CoeffRange=*/3,
                            /*ConstRange=*/6, /*Box=*/4};
    Problem P = randomProblem(Rng, Cfg);
    std::vector<VarId> Kept = {0}, Dropped = {1, 2};
    for (bool RemoveRedundant : {true, false}) {
      ProjectionResult R =
          projectOnto(P, Kept, Ctx, withApprox(RemoveRedundant));
      ASSERT_FALSE(R.Poisoned);
      ASSERT_TRUE(R.Approx);
      const Problem &Shadow = R.Approx->Shadow;
      if (R.Approx->Exact) {
        ASSERT_LE(R.Pieces.size(), 1u) << P.toString();
        if (R.Pieces.empty())
          continue;
        ++ExactNonEmpty;
        EXPECT_TRUE(sameRows(Shadow, R.Pieces.front()))
            << P.toString() << "\napprox " << Shadow.toString()
            << "\npiece " << R.Pieces.front().toString();
        continue;
      }
      ++Splintered;
      forEachPoint(P.getNumVars(), Kept, -Cfg.Box, Cfg.Box,
                   [&](const std::vector<int64_t> &Point) {
                     bool Inside = forEachPointFrom(
                         Point, Dropped, -Cfg.Box, Cfg.Box,
                         [&](const std::vector<int64_t> &Full) {
                           return evalProblem(P, Full);
                         });
                     if (Inside && !pieceContains(Shadow, Kept, Point)) {
                       ADD_FAILURE() << "approximation not a superset for "
                                     << P.toString();
                       return true;
                     }
                     return false;
                   });
    }
  }
  EXPECT_GT(ExactNonEmpty, 0u);
  EXPECT_GT(Splintered, 0u);
}

// An exact projection whose one conjunction has rational but no integer
// points (Pugh's dark-shadow example, plus a variable eliminated exactly)
// yields no piece, and Approx is still that conjunction's real shadow.
TEST(Projection, IntegerEmptyExactProjectionKeepsItsRealShadow) {
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  VarId Z = P.addVar("z");
  P.addGEQ({{X, 11}, {Y, 13}}, -27); // 27 <= 11x + 13y <= 45
  P.addGEQ({{X, -11}, {Y, -13}}, 45);
  P.addGEQ({{X, 7}, {Y, -9}}, 10); // -10 <= 7x - 9y <= 4
  P.addGEQ({{X, -7}, {Y, 9}}, 4);
  P.addGEQ({{Z, 1}}, 0); // 0 <= z <= x: eliminating z is exact
  P.addGEQ({{Z, -1}, {X, 1}}, 0);
  for (bool RemoveRedundant : {true, false}) {
    SCOPED_TRACE(RemoveRedundant ? "RemoveRedundant" : "keep redundant");
    ProjectionResult R =
        projectOnto(P, {X, Y}, Ctx, withApprox(RemoveRedundant));
    EXPECT_TRUE(R.isEmpty());
    ASSERT_TRUE(R.Approx);
    const Problem &Shadow = R.Approx->Shadow;
    EXPECT_TRUE(R.Approx->Exact);
    EXPECT_FALSE(Shadow.involves(Z));
    EXPECT_FALSE(isSatisfiable(Shadow, Ctx));
    EXPECT_TRUE(realShadowSat(Shadow)) << Shadow.toString();
    if (!RemoveRedundant) {
      // The four rows plus x >= 0 from z's bounds.
      EXPECT_EQ(Shadow.getNumConstraints(), 5u) << Shadow.toString();
    }
  }
}

// A splintered projection takes its Approx from the real-shadow-only
// elimination: here that shadow drops x's residue class, which no piece
// does.
TEST(Projection, SplinteredApproxIsTheRealShadow) {
  OmegaContext Ctx;
  Problem P;
  VarId X = P.addVar("x");
  VarId Y = P.addVar("y");
  P.addGEQ({{Y, 3}, {X, -1}}, -5); // 3y in [x+5, x+6]
  P.addGEQ({{Y, -3}, {X, 1}}, 6);
  ProjectionResult R = projectOnto(P, {X}, Ctx, withApprox());
  ASSERT_TRUE(R.Approx);
  const Problem &Shadow = R.Approx->Shadow;
  EXPECT_FALSE(R.Approx->Exact);
  EXPECT_FALSE(unionContains(R, {X}, {2, 0}));
  EXPECT_TRUE(pieceContains(Shadow, {X}, {2, 0}));
  EXPECT_EQ(Shadow.getNumConstraints(), 0u) << Shadow.toString();
}

//===----------------------------------------------------------------------===//
// Property tests: a point is in the projection iff the original problem has
// an extension, and the union of pieces is contained in the approximation.
//===----------------------------------------------------------------------===//

namespace {

struct ProjPropertyParam {
  RandomProblemConfig Cfg;
  unsigned KeepCount;
  unsigned Trials;
  unsigned Seed;
};

// Print a case as its seed, which is unique within each suite. The default
// printer dumps the struct's bytes, padding included, so the test names
// would change from build to build.
void PrintTo(const ProjPropertyParam &Param, std::ostream *OS) {
  *OS << "seed" << Param.Seed;
}

class ProjectionProperty : public ::testing::TestWithParam<ProjPropertyParam> {
};

} // namespace

TEST_P(ProjectionProperty, MatchesBruteForce) {
  OmegaContext Ctx;
  const ProjPropertyParam &Param = GetParam();
  std::mt19937 Rng(Param.Seed);
  for (unsigned T = 0; T != Param.Trials; ++T) {
    Problem P = randomProblem(Rng, Param.Cfg);
    std::vector<VarId> Kept, Dropped;
    for (VarId V = 0; V != static_cast<VarId>(Param.Cfg.NumVars); ++V)
      (static_cast<unsigned>(V) < Param.KeepCount ? Kept : Dropped)
          .push_back(V);

    ProjectionResult R = projectOnto(P, Kept, Ctx, withApprox());
    ASSERT_TRUE(R.Approx);

    // Asking for the approximation moves no piece and no poison bit.
    ProjectionResult Plain = projectOnto(P, Kept, Ctx);
    EXPECT_FALSE(Plain.Approx);
    EXPECT_EQ(Plain.Poisoned, R.Poisoned);
    ASSERT_EQ(Plain.Pieces.size(), R.Pieces.size()) << P.toString();
    for (unsigned I = 0; I != R.Pieces.size(); ++I)
      EXPECT_TRUE(sameRows(Plain.Pieces[I], R.Pieces[I]))
          << "piece " << I << " of " << P.toString();

    // computeVarRange keeps redundant rows; it must read the range that
    // the pieces give once those rows are removed.
    for (VarId V = 0; V != static_cast<VarId>(P.getNumVars()); ++V) {
      ProjectionResult Polished = projectOnto(P, {V}, Ctx);
      IntRange Expected = computeVarRange(Polished.Pieces, V, Ctx);
      if (Polished.Poisoned) {
        Expected.Empty = Expected.HasMin = Expected.HasMax = false;
        Expected.Exact = false;
      }
      IntRange Got = computeVarRange(P, V, Ctx);
      EXPECT_EQ(Got.toString(), Expected.toString())
          << "v" << V << " of " << P.toString();
      EXPECT_EQ(Got.Exact, Expected.Exact) << "v" << V << " of "
                                           << P.toString();
    }

    // For every point over the kept variables within the box, membership
    // in the union of pieces must equal existence of an extension, and
    // membership must imply membership in the approximation.
    bool OK = true;
    forEachPoint(P.getNumVars(), Kept, -Param.Cfg.Box, Param.Cfg.Box,
                 [&](const std::vector<int64_t> &Point) {
                   bool Expected = forEachPointFrom(
                       Point, Dropped, -Param.Cfg.Box, Param.Cfg.Box,
                       [&](const std::vector<int64_t> &Full) {
                         return evalProblem(P, Full);
                       });
                   bool Actual = unionContains(R, Kept, Point);
                   if (Actual != Expected) {
                     ADD_FAILURE()
                         << "projection mismatch at trial " << T << " for "
                         << P.toString();
                     OK = false;
                     return true;
                   }
                   if (Actual &&
                       !pieceContains(R.Approx->Shadow, Kept, Point)) {
                     ADD_FAILURE() << "approximation not a superset, trial "
                                   << T << " for " << P.toString();
                     OK = false;
                     return true;
                   }
                   return false;
                 });
    if (!OK)
      return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomBoxes, ProjectionProperty,
    ::testing::Values(
        ProjPropertyParam{{/*NumVars=*/2, /*NumEQs=*/0, /*NumGEQs=*/3,
                           /*CoeffRange=*/4, /*ConstRange=*/8, /*Box=*/5},
                          /*KeepCount=*/1, 60, 11},
        ProjPropertyParam{{/*NumVars=*/2, /*NumEQs=*/1, /*NumGEQs=*/2,
                           /*CoeffRange=*/3, /*ConstRange=*/6, /*Box=*/5},
                          /*KeepCount=*/1, 60, 12},
        ProjPropertyParam{{/*NumVars=*/3, /*NumEQs=*/0, /*NumGEQs=*/4,
                           /*CoeffRange=*/3, /*ConstRange=*/6, /*Box=*/4},
                          /*KeepCount=*/1, 40, 13},
        ProjPropertyParam{{/*NumVars=*/3, /*NumEQs=*/1, /*NumGEQs=*/3,
                           /*CoeffRange=*/2, /*ConstRange=*/6, /*Box=*/4},
                          /*KeepCount=*/2, 40, 14},
        ProjPropertyParam{{/*NumVars=*/4, /*NumEQs=*/1, /*NumGEQs=*/3,
                           /*CoeffRange=*/2, /*ConstRange=*/5, /*Box=*/3},
                          /*KeepCount=*/2, 25, 15}));

namespace {

class VarRangeProperty : public ::testing::TestWithParam<ProjPropertyParam> {};

} // namespace

TEST_P(VarRangeProperty, RangeMatchesBruteForce) {
  OmegaContext Ctx;
  const ProjPropertyParam &Param = GetParam();
  std::mt19937 Rng(Param.Seed + 1000);
  for (unsigned T = 0; T != Param.Trials; ++T) {
    Problem P = randomProblem(Rng, Param.Cfg);
    std::vector<VarId> All;
    for (VarId V = 0; V != static_cast<VarId>(Param.Cfg.NumVars); ++V)
      All.push_back(V);

    VarId Target = 0;
    IntRange R = computeVarRange(P, Target, Ctx);

    bool Any = false;
    int64_t Min = 0, Max = 0;
    forEachPoint(P.getNumVars(), All, -Param.Cfg.Box, Param.Cfg.Box,
                 [&](const std::vector<int64_t> &Pt) {
                   if (!evalProblem(P, Pt))
                     return false;
                   if (!Any) {
                     Min = Max = Pt[Target];
                     Any = true;
                   } else {
                     Min = std::min(Min, Pt[Target]);
                     Max = std::max(Max, Pt[Target]);
                   }
                   return false;
                 });

    ASSERT_EQ(!R.Empty, Any) << "trial " << T << ": " << P.toString();
    if (!Any)
      continue;
    // The generated problems box every variable, so both ends are closed.
    ASSERT_TRUE(R.HasMin && R.HasMax) << P.toString();
    EXPECT_EQ(R.Min, Min) << "trial " << T << ": " << P.toString();
    EXPECT_EQ(R.Max, Max) << "trial " << T << ": " << P.toString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomBoxes, VarRangeProperty,
    ::testing::Values(
        ProjPropertyParam{{/*NumVars=*/2, /*NumEQs=*/0, /*NumGEQs=*/3,
                           /*CoeffRange=*/3, /*ConstRange=*/6, /*Box=*/5},
                          1, 60, 21},
        ProjPropertyParam{{/*NumVars=*/3, /*NumEQs=*/1, /*NumGEQs=*/2,
                           /*CoeffRange=*/2, /*ConstRange=*/5, /*Box=*/4},
                          1, 40, 22}));
