//===- tests/PresburgerTest.cpp -------------------------------------------===//
//
// Unit and property tests for the Presburger formula layer (Section 3.2).
//
//===----------------------------------------------------------------------===//

#include "presburger/Decision.h"

#include "omega/Gist.h"
#include "TestUtils.h"

#include <gtest/gtest.h>

using namespace omega;
using namespace omega::pres;

namespace {

/// Brute-force evaluation of a formula at an assignment; quantifiers range
/// over [Lo, Hi] only, so the formulas under test must bound their
/// quantified variables to that window themselves.
bool evalFormula(const Formula &F, std::vector<int64_t> &Point, int64_t Lo,
                 int64_t Hi) {
  switch (F.getKind()) {
  case Formula::Kind::True:
    return true;
  case Formula::Kind::False:
    return false;
  case Formula::Kind::AtomK: {
    const Atom &A = F.getAtom();
    int64_t Sum = A.Constant;
    for (const Term &T : A.Terms)
      Sum += T.second * Point[T.first];
    return A.Kind == ConstraintKind::EQ ? Sum == 0 : Sum >= 0;
  }
  case Formula::Kind::And:
    for (const Formula &C : F.children())
      if (!evalFormula(C, Point, Lo, Hi))
        return false;
    return true;
  case Formula::Kind::Or:
    for (const Formula &C : F.children())
      if (evalFormula(C, Point, Lo, Hi))
        return true;
    return false;
  case Formula::Kind::Not:
    return !evalFormula(F.children().front(), Point, Lo, Hi);
  case Formula::Kind::Exists:
  case Formula::Kind::Forall: {
    bool IsExists = F.getKind() == Formula::Kind::Exists;
    std::function<bool(unsigned)> Rec = [&](unsigned I) -> bool {
      if (I == F.boundVars().size())
        return evalFormula(F.children().front(), Point, Lo, Hi);
      for (int64_t X = Lo; X <= Hi; ++X) {
        Point[F.boundVars()[I]] = X;
        bool V = Rec(I + 1);
        if (V == IsExists)
          return IsExists;
      }
      return !IsExists;
    };
    return Rec(0);
  }
  }
  return false;
}

} // namespace

TEST(Presburger, AtomSatisfiability) {
  OmegaContext OC;
  FormulaContext Ctx;
  VarId X = Ctx.addVar("x");
  Formula F = Formula::conj({Formula::geq({{X, 1}}, -3),   // x >= 3
                             Formula::leq({{X, 1}}, -5)}); // x <= 5... wait
  // leq({{x,1}}, -5) is x - 5 <= 0, i.e. x <= 5.
  EXPECT_EQ(isSatisfiable(F, Ctx, OC), std::optional<bool>(true));

  Formula G = Formula::conj({Formula::geq({{X, 1}}, -6),  // x >= 6
                             Formula::leq({{X, 1}}, -5)}); // x <= 5
  EXPECT_EQ(isSatisfiable(G, Ctx, OC), std::optional<bool>(false));
}

TEST(Presburger, NeqSplitsCorrectly) {
  OmegaContext OC;
  FormulaContext Ctx;
  VarId X = Ctx.addVar("x");
  // 0 <= x <= 1 && x != 0 && x != 1 is unsatisfiable.
  Formula F = Formula::conj({
      Formula::geq({{X, 1}}, 0),
      Formula::leq({{X, 1}}, -1),
      Formula::neq({{X, 1}}, 0),
      Formula::neq({{X, 1}}, -1),
  });
  EXPECT_EQ(isSatisfiable(F, Ctx, OC), std::optional<bool>(false));
}

TEST(Presburger, ForallExistsPattern) {
  OmegaContext OC;
  // forall x: 0 <= x <= 100 implies exists y: 2y == x or 2y == x + 1.
  FormulaContext Ctx;
  VarId X = Ctx.addVar("x");
  VarId Y = Ctx.addVar("y");
  Formula Range = Formula::conj({Formula::geq({{X, 1}}, 0),
                                 Formula::leq({{X, 1}}, -100)});
  Formula Body = Formula::disj({Formula::eq({{Y, 2}, {X, -1}}, 0),
                                Formula::eq({{Y, 2}, {X, -1}}, -1)});
  Formula F = Formula::forall(
      {X}, Formula::implies(Range, Formula::exists({Y}, Body)));
  EXPECT_EQ(isValid(F, Ctx, OC), std::optional<bool>(true));

  // Without the "+1" disjunct the claim fails for odd x.
  Formula Bad = Formula::forall(
      {X}, Formula::implies(
               Range, Formula::exists(
                          {Y}, Formula::eq({{Y, 2}, {X, -1}}, 0))));
  EXPECT_EQ(isValid(Bad, Ctx, OC), std::optional<bool>(false));
}

TEST(Presburger, PaperImplicationForm) {
  OmegaContext OC;
  // forall x: (exists y: p) => (exists z: q) with
  // p: x == 2y, 0 <= y <= 10   (x even in [0, 20])
  // q: x == z, 0 <= z <= 20    (x in [0, 20])
  FormulaContext Ctx;
  VarId X = Ctx.addVar("x");
  VarId Y = Ctx.addVar("y");
  VarId Z = Ctx.addVar("z");
  Formula P = Formula::conj({Formula::eq({{X, 1}, {Y, -2}}, 0),
                             Formula::geq({{Y, 1}}, 0),
                             Formula::leq({{Y, 1}}, -10)});
  Formula Q = Formula::conj({Formula::eq({{X, 1}, {Z, -1}}, 0),
                             Formula::geq({{Z, 1}}, 0),
                             Formula::leq({{Z, 1}}, -20)});
  Formula F = Formula::forall(
      {X}, Formula::implies(Formula::exists({Y}, P),
                            Formula::exists({Z}, Q)));
  EXPECT_EQ(isValid(F, Ctx, OC), std::optional<bool>(true));

  // The converse fails (odd x in [0,20] satisfy q but not p).
  Formula G = Formula::forall(
      {X}, Formula::implies(Formula::exists({Z}, Q),
                            Formula::exists({Y}, P)));
  EXPECT_EQ(isValid(G, Ctx, OC), std::optional<bool>(false));
}

TEST(Presburger, TautologyDisjunctionForm) {
  OmegaContext OC;
  // forall x: not p or q with p: x >= 5, q: x >= 3 -- a tautology.
  FormulaContext Ctx;
  VarId X = Ctx.addVar("x");
  Formula F = Formula::forall(
      {X}, Formula::disj({Formula::negate(Formula::geq({{X, 1}}, -5)),
                          Formula::geq({{X, 1}}, -3)}));
  EXPECT_EQ(isValid(F, Ctx, OC), std::optional<bool>(true));

  Formula G = Formula::forall(
      {X}, Formula::disj({Formula::negate(Formula::geq({{X, 1}}, -3)),
                          Formula::geq({{X, 1}}, -5)}));
  EXPECT_EQ(isValid(G, Ctx, OC), std::optional<bool>(false));
}

TEST(Presburger, StrideNegation) {
  OmegaContext OC;
  // "x is even or x is odd" is valid; needs negation of a stride.
  FormulaContext Ctx;
  VarId X = Ctx.addVar("x");
  VarId Y = Ctx.addVar("y");
  Formula Even = Formula::exists({Y}, Formula::eq({{X, 1}, {Y, -2}}, 0));
  Formula Odd = Formula::exists({Y}, Formula::eq({{X, 1}, {Y, -2}}, -1));
  EXPECT_EQ(isValid(Formula::disj({Even, Odd}), Ctx, OC),
            std::optional<bool>(true));
  EXPECT_EQ(isValid(Even, Ctx, OC), std::optional<bool>(false));
}

TEST(Presburger, NNFRemovesNots) {
  FormulaContext Ctx;
  VarId X = Ctx.addVar("x");
  Formula F = Formula::negate(Formula::conj(
      {Formula::geq({{X, 1}}, 0),
       Formula::negate(Formula::eq({{X, 1}}, -2))}));
  Formula N = F.toNNF();
  std::function<void(const Formula &)> CheckNoNot = [&](const Formula &G) {
    EXPECT_NE(G.getKind(), Formula::Kind::Not);
    for (const Formula &C : G.children())
      CheckNoNot(C);
  };
  CheckNoNot(N);
}

TEST(Presburger, ToStringReadable) {
  FormulaContext Ctx;
  VarId X = Ctx.addVar("x");
  VarId Y = Ctx.addVar("y");
  Formula F = Formula::exists(
      {Y}, Formula::conj({Formula::eq({{X, 1}, {Y, -2}}, 0),
                          Formula::geq({{Y, 1}}, 0)}));
  EXPECT_EQ(F.toString(Ctx), "exists y: (x - 2*y = 0 && y >= 0)");
}

//===----------------------------------------------------------------------===//
// Property tests against brute-force evaluation.
//===----------------------------------------------------------------------===//

namespace {

struct FormulaPropertyParam {
  unsigned Trials;
  unsigned Seed;
  int64_t Box;
};

class FormulaProperty : public ::testing::TestWithParam<FormulaPropertyParam> {
protected:
  /// Random quantifier-free formula over vars [0, NumVars) with small
  /// coefficients; atoms keep everything inside the box.
  Formula randomBody(std::mt19937 &Rng, const std::vector<VarId> &Vars,
                     int64_t Box, unsigned Depth) {
    std::uniform_int_distribution<int> Shape(0, Depth == 0 ? 1 : 3);
    std::uniform_int_distribution<int64_t> Coeff(-2, 2);
    std::uniform_int_distribution<int64_t> Const(-2 * Box, 2 * Box);
    switch (Shape(Rng)) {
    case 0:
    case 1: {
      std::vector<Term> Terms;
      for (VarId V : Vars)
        Terms.push_back({V, Coeff(Rng)});
      bool IsEq = std::uniform_int_distribution<int>(0, 3)(Rng) == 0;
      return IsEq ? Formula::eq(std::move(Terms), Const(Rng))
                  : Formula::geq(std::move(Terms), Const(Rng));
    }
    case 2:
      return Formula::conj({randomBody(Rng, Vars, Box, Depth - 1),
                            randomBody(Rng, Vars, Box, Depth - 1)});
    default:
      return Formula::disj({randomBody(Rng, Vars, Box, Depth - 1),
                            randomBody(Rng, Vars, Box, Depth - 1)});
    }
  }

  /// Bounds var to [-Box, Box] as a formula.
  Formula boxed(VarId V, int64_t Box) {
    return Formula::conj(
        {Formula::geq({{V, 1}}, Box), Formula::geq({{V, -1}}, Box)});
  }
};

} // namespace

TEST_P(FormulaProperty, QuantifierFreeSatisfiability) {
  OmegaContext OC;
  const FormulaPropertyParam &Param = GetParam();
  std::mt19937 Rng(Param.Seed);
  for (unsigned T = 0; T != Param.Trials; ++T) {
    FormulaContext Ctx;
    std::vector<VarId> Vars = {Ctx.addVar("a"), Ctx.addVar("b")};
    Formula Body = Formula::conj({boxed(Vars[0], Param.Box),
                                  boxed(Vars[1], Param.Box),
                                  randomBody(Rng, Vars, Param.Box, 2)});
    std::optional<bool> Actual = isSatisfiable(Body, Ctx, OC);
    ASSERT_TRUE(Actual.has_value());

    std::vector<int64_t> Point(Ctx.getNumVars(), 0);
    bool Expected = false;
    for (int64_t A = -Param.Box; A <= Param.Box && !Expected; ++A)
      for (int64_t B = -Param.Box; B <= Param.Box && !Expected; ++B) {
        Point[Vars[0]] = A;
        Point[Vars[1]] = B;
        Expected = evalFormula(Body, Point, -Param.Box, Param.Box);
      }
    ASSERT_EQ(*Actual, Expected)
        << "trial " << T << ": " << Body.toString(Ctx);
  }
}

TEST_P(FormulaProperty, ExistsForallValidity) {
  OmegaContext OC;
  const FormulaPropertyParam &Param = GetParam();
  std::mt19937 Rng(Param.Seed + 500);
  for (unsigned T = 0; T != Param.Trials; ++T) {
    FormulaContext Ctx;
    VarId X = Ctx.addVar("x");
    VarId Y = Ctx.addVar("y");
    // forall x: boxed(x) => exists y: boxed(y) && body(x, y).
    Formula Body = randomBody(Rng, {X, Y}, Param.Box, 2);
    Formula F = Formula::forall(
        {X},
        Formula::implies(
            boxed(X, Param.Box),
            Formula::exists({Y}, Formula::conj({boxed(Y, Param.Box),
                                                std::move(Body)}))));
    std::optional<bool> Actual = isValid(F, Ctx, OC);
    ASSERT_TRUE(Actual.has_value()) << F.toString(Ctx);

    std::vector<int64_t> Point(Ctx.getNumVars(), 0);
    bool Expected = evalFormula(F, Point, -Param.Box, Param.Box);
    ASSERT_EQ(*Actual, Expected)
        << "trial " << T << ": " << F.toString(Ctx);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomFormulas, FormulaProperty,
    ::testing::Values(FormulaPropertyParam{120, 91, 4},
                      FormulaPropertyParam{120, 92, 3},
                      FormulaPropertyParam{80, 93, 5}));

//===----------------------------------------------------------------------===//
// Equivalence and assignment extraction.
//===----------------------------------------------------------------------===//

// Eliminating y cross-multiplies two coprime coefficients near 3 * 10^9,
// past the saturation cap, so the projection abandons its pieces. The
// decision is then unknown, never the "false" those missing pieces would
// read as: x = y = 0 satisfies the body.
TEST(Presburger, OverflowedQuantifierIsUnknown) {
  OmegaContext OC;
  FormulaContext C;
  VarId X = C.addVar("x");
  VarId Y = C.addVar("y");
  Formula F = Formula::exists(
      {Y}, Formula::conj({Formula::geq({{Y, 3037000493}, {X, -3037000453}}, 0),
                          Formula::geq({{Y, -3037000453}, {X, 3037000493}}, 5),
                          Formula::geq({{X, 1}}, 0),
                          Formula::geq({{X, -1}}, 1000)}));
  EXPECT_FALSE(toDNF(F, C, OC).has_value());
  EXPECT_FALSE(isSatisfiable(F, C, OC).has_value());
  Formula NotAtZero =
      Formula::conj({Formula::negate(F), Formula::eq({{X, 1}}, 0)});
  EXPECT_FALSE(isSatisfiable(NotAtZero, C, OC).has_value());
}

TEST(Presburger, EquivalenceBasics) {
  OmegaContext OC;
  FormulaContext Ctx;
  VarId X = Ctx.addVar("x");
  // 2 <= x <= 4 is equivalent to (x = 2 or x = 3 or x = 4).
  Formula Range = Formula::conj(
      {Formula::geq({{X, 1}}, -2), Formula::leq({{X, 1}}, -4)});
  Formula Cases = Formula::disj({Formula::eq({{X, 1}}, -2),
                                 Formula::eq({{X, 1}}, -3),
                                 Formula::eq({{X, 1}}, -4)});
  EXPECT_EQ(isEquivalent(Range, Cases, Ctx, OC), std::optional<bool>(true));

  Formula Narrower = Formula::conj(
      {Formula::geq({{X, 1}}, -2), Formula::leq({{X, 1}}, -3)});
  EXPECT_EQ(isEquivalent(Range, Narrower, Ctx, OC), std::optional<bool>(false));
}

TEST(Presburger, EquivalenceWithQuantifiers) {
  OmegaContext OC;
  FormulaContext Ctx;
  VarId X = Ctx.addVar("x");
  VarId Y = Ctx.addVar("y");
  // "x even" expressed with two different witnesses.
  Formula EvenA = Formula::exists({Y}, Formula::eq({{X, 1}, {Y, -2}}, 0));
  Formula EvenB = Formula::exists(
      {Y}, Formula::eq({{X, 1}, {Y, -2}}, -4)); // x = 2y + 4: still even
  EXPECT_EQ(isEquivalent(EvenA, EvenB, Ctx, OC), std::optional<bool>(true));
}

TEST(Presburger, FindAssignmentReturnsWitness) {
  OmegaContext OC;
  FormulaContext Ctx;
  VarId X = Ctx.addVar("x");
  VarId Y = Ctx.addVar("y");
  Formula F = Formula::conj({Formula::eq({{X, 1}, {Y, 1}}, -9),
                             Formula::geq({{X, 1}}, -4),
                             Formula::leq({{X, 1}}, -6)});
  auto Result = findAssignment(F, Ctx, OC);
  ASSERT_TRUE(Result.has_value());
  ASSERT_TRUE(Result->has_value());
  const std::vector<int64_t> &Sol = **Result;
  EXPECT_EQ(Sol[X] + Sol[Y], 9);
  EXPECT_GE(Sol[X], 4);
  EXPECT_LE(Sol[X], 6);

  Formula Unsat = Formula::conj(
      {Formula::geq({{X, 1}}, -4), Formula::leq({{X, 1}}, -2)});
  auto None = findAssignment(Unsat, Ctx, OC);
  ASSERT_TRUE(None.has_value());
  EXPECT_FALSE(None->has_value());
}

//===----------------------------------------------------------------------===//
// Cross-layer consistency: the formula layer and the direct gist-based
// implication must agree.
//===----------------------------------------------------------------------===//

TEST(Presburger, ImplicationAgreesWithOmegaImplies) {
  OmegaContext OC;
  std::mt19937 Rng(321);
  for (unsigned T = 0; T != 80; ++T) {
    FormulaContext Ctx;
    VarId A = Ctx.addVar("a");
    VarId B = Ctx.addVar("b");

    std::uniform_int_distribution<int64_t> Coeff(-2, 2);
    std::uniform_int_distribution<int64_t> Const(-6, 6);
    auto randomRows = [&](Problem &P, unsigned N) {
      for (unsigned I = 0; I != N; ++I) {
        Constraint &Row = P.addRow(ConstraintKind::GEQ);
        Row.setCoeff(A, Coeff(Rng));
        Row.setCoeff(B, Coeff(Rng));
        Row.setConstant(Const(Rng));
      }
      // Box so both layers see the same bounded world.
      for (VarId V : {A, B}) {
        P.addGEQ({{V, 1}}, 6);
        P.addGEQ({{V, -1}}, 6);
      }
    };

    Problem PQ = Ctx.makeProblem();
    randomRows(PQ, 3);
    Problem PP = Ctx.makeProblem();
    randomRows(PP, 2);

    bool Direct = omega::implies(PQ, PP, OC);

    auto toFormula = [&](const Problem &P) {
      std::vector<Formula> Atoms;
      for (const Constraint &Row : P.constraints()) {
        std::vector<Term> Terms;
        for (VarId V : {A, B})
          if (Row.getCoeff(V) != 0)
            Terms.push_back({V, Row.getCoeff(V)});
        Atoms.push_back(Row.isEquality()
                            ? Formula::eq(Terms, Row.getConstant())
                            : Formula::geq(Terms, Row.getConstant()));
      }
      return Formula::conj(std::move(Atoms));
    };
    std::optional<bool> ViaFormulas = isValid(
        Formula::forall({A, B},
                        Formula::implies(toFormula(PQ), toFormula(PP))),
        Ctx, OC);
    ASSERT_TRUE(ViaFormulas.has_value());
    EXPECT_EQ(*ViaFormulas, Direct)
        << "q = " << PQ.toString() << "\np = " << PP.toString();
  }
}
