//===- presburger/Decision.cpp --------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "presburger/Decision.h"

#include "omega/Gist.h"
#include "omega/Projection.h"
#include "omega/Satisfiability.h"

#include <map>

using namespace omega;
using namespace omega::pres;

namespace {

using Pieces = std::vector<Problem>;

/// Conjoins two problems that both extend the context layout. B's
/// existential columns -- extra wildcards and context variables that a
/// projection turned into strides (unprotected) -- are remapped onto fresh
/// wildcards of the result, so existentials from different subformulas
/// never conflate even when they reused the same bound variable.
Problem combinePieces(const Problem &A, const Problem &B, unsigned CtxVars) {
  Problem Result = A;
  std::map<VarId, VarId> Remap;
  for (const Constraint &Row : B.constraints()) {
    Result.addRow(Row.getKind(), Row.isRed());
    Result.constraints().back().setConstant(Row.getConstant());
    for (VarId V = 0, E = Row.getNumVars(); V != E; ++V) {
      int64_t C = Row.getCoeff(V);
      if (C == 0)
        continue;
      VarId Target = V;
      if (static_cast<unsigned>(V) >= CtxVars || !B.isProtected(V)) {
        auto [It, Inserted] = Remap.try_emplace(V, -1);
        if (Inserted)
          It->second = Result.addWildcard();
        Target = It->second;
      }
      // addWildcard resizes every row in place; index the row afresh.
      Result.constraints().back().setCoeff(Target, C);
    }
  }
  return Result;
}

/// Classification of one piece's rows for negation.
struct NegatableRows {
  std::vector<Constraint> Plain;   // wildcard-free rows
  std::vector<Constraint> Strides; // simple stride equalities
  bool Supported = true;
};

NegatableRows classifyForNegation(const Problem &P, unsigned CtxVars) {
  (void)CtxVars;
  NegatableRows R;
  // Existential columns are the unprotected ones: extra wildcards plus
  // context variables that a projection turned into strides.
  auto isExistential = [&P](VarId V) { return !P.isProtected(V); };

  // Count existential-variable occurrences across rows.
  std::vector<unsigned> RowsUsing(P.getNumVars(), 0);
  for (const Constraint &Row : P.constraints())
    for (VarId V = 0, E = P.getNumVars(); V != static_cast<VarId>(E); ++V)
      if (Row.involves(V) && isExistential(V))
        ++RowsUsing[V];

  for (const Constraint &Row : P.constraints()) {
    std::vector<VarId> Wildcards;
    for (VarId V = 0, E = P.getNumVars(); V != static_cast<VarId>(E); ++V)
      if (Row.involves(V) && isExistential(V))
        Wildcards.push_back(V);
    if (Wildcards.empty()) {
      R.Plain.push_back(Row);
      continue;
    }
    // Simple stride: an equality with exactly one wildcard that appears in
    // no other row.
    if (Row.isEquality() && Wildcards.size() == 1 &&
        RowsUsing[Wildcards.front()] == 1) {
      if (absVal(Row.getCoeff(Wildcards.front())) == 1)
        continue; // exists w: f + w == 0 is vacuously true; no constraint
      R.Strides.push_back(Row);
      continue;
    }
    R.Supported = false;
    return R;
  }
  return R;
}

/// The negation of a single piece as a union of pieces over the context
/// layout, or nullopt when unsupported.
std::optional<Pieces> negateOnePiece(const Problem &P,
                                     const FormulaContext &Ctx) {
  unsigned CtxVars = Ctx.getNumVars();
  NegatableRows Rows = classifyForNegation(P, CtxVars);
  if (!Rows.Supported)
    return std::nullopt;

  Pieces Out;
  // Copies the coefficients of the protected (free) variables; existential
  // columns are handled by the stride machinery.
  auto copyCtxCoeffs = [&](const Constraint &From, Constraint &To) {
    for (VarId V = 0; V != static_cast<VarId>(CtxVars); ++V)
      if (P.isProtected(V))
        To.setCoeff(V, From.getCoeff(V));
    To.setConstant(From.getConstant());
  };

  for (const Constraint &Row : Rows.Plain) {
    std::vector<Constraint> Branches;
    appendNegationBranches(Row, Branches);
    for (const Constraint &Branch : Branches) {
      Problem Piece = Ctx.makeProblem();
      Constraint &New = Piece.addRow(Branch.getKind());
      copyCtxCoeffs(Branch, New);
      Out.push_back(std::move(Piece));
    }
  }

  for (const Constraint &Row : Rows.Strides) {
    // Row: f(ctx) + a*w + c == 0 represents f + c == 0 (mod |a|). Its
    // negation is the union over non-zero residues r of
    // exists w': f + c - r + a*w' == 0.
    VarId W = -1;
    for (VarId V = 0, E = P.getNumVars(); V != static_cast<VarId>(E); ++V)
      if (Row.involves(V) && !P.isProtected(V)) {
        W = V;
        break;
      }
    int64_t A = absVal(Row.getCoeff(W));
    for (int64_t Residue = 1; Residue < A; ++Residue) {
      Problem Piece = Ctx.makeProblem();
      VarId NewW = Piece.addWildcard();
      Constraint &New = Piece.addRow(ConstraintKind::EQ);
      copyCtxCoeffs(Row, New);
      New.addToConstant(-Residue);
      New.setCoeff(NewW, Row.getCoeff(W));
      Out.push_back(std::move(Piece));
    }
  }
  return Out;
}

/// not(P1 or ... or Pk) as a union of conjunctions: distribute the
/// conjunction of the piecewise negations, pruning empty combinations.
std::optional<Pieces> negatePieces(const Pieces &Ps, const FormulaContext &Ctx,
                                   OmegaContext &OC) {
  Pieces Acc;
  Acc.push_back(Ctx.makeProblem()); // neutral element: True
  for (const Problem &P : Ps) {
    std::optional<Pieces> Neg = negateOnePiece(P, Ctx);
    if (!Neg)
      return std::nullopt;
    Pieces Next;
    for (const Problem &A : Acc)
      for (const Problem &B : *Neg) {
        Problem C = combinePieces(A, B, Ctx.getNumVars());
        if (isSatisfiable(C, OC))
          Next.push_back(std::move(C));
      }
    Acc = std::move(Next);
    if (Acc.empty())
      break;
  }
  return Acc;
}

std::optional<Pieces> toDNFImpl(const Formula &F, const FormulaContext &Ctx,
                                OmegaContext &OC) {
  switch (F.getKind()) {
  case Formula::Kind::True:
    return Pieces{Ctx.makeProblem()};
  case Formula::Kind::False:
    return Pieces{};
  case Formula::Kind::AtomK: {
    Problem P = Ctx.makeProblem();
    P.addConstraint(F.getAtom().toConstraint(P));
    return Pieces{std::move(P)};
  }
  case Formula::Kind::And: {
    Pieces Acc;
    Acc.push_back(Ctx.makeProblem());
    for (const Formula &Child : F.children()) {
      std::optional<Pieces> Sub = toDNFImpl(Child, Ctx, OC);
      if (!Sub)
        return std::nullopt;
      Pieces Next;
      for (const Problem &A : Acc)
        for (const Problem &B : *Sub) {
          Problem C = combinePieces(A, B, Ctx.getNumVars());
          if (isSatisfiable(C, OC))
            Next.push_back(std::move(C));
        }
      Acc = std::move(Next);
      if (Acc.empty())
        break;
    }
    return Acc;
  }
  case Formula::Kind::Or: {
    Pieces Acc;
    for (const Formula &Child : F.children()) {
      std::optional<Pieces> Sub = toDNFImpl(Child, Ctx, OC);
      if (!Sub)
        return std::nullopt;
      for (Problem &P : *Sub)
        Acc.push_back(std::move(P));
    }
    return Acc;
  }
  case Formula::Kind::Not: {
    std::optional<Pieces> Sub = toDNFImpl(F.children().front(), Ctx, OC);
    if (!Sub)
      return std::nullopt;
    return negatePieces(*Sub, Ctx, OC);
  }
  case Formula::Kind::Exists: {
    std::optional<Pieces> Sub = toDNFImpl(F.children().front(), Ctx, OC);
    if (!Sub)
      return std::nullopt;
    Pieces Out;
    for (const Problem &P : *Sub) {
      std::vector<bool> Keep(P.getNumVars(), true);
      for (VarId V : F.boundVars()) {
        assert(static_cast<unsigned>(V) < Ctx.getNumVars() &&
               "bound variable must be a context variable");
        Keep[V] = false;
      }
      // The projection already dropped its integer-empty pieces. An
      // overflowed one abandoned pieces, so the answer is unknown.
      ProjectionResult R = projectOntoMask(P, Keep, OC);
      if (R.Poisoned)
        return std::nullopt;
      for (Problem &Piece : R.Pieces)
        Out.push_back(std::move(Piece));
    }
    return Out;
  }
  case Formula::Kind::Forall: {
    // forall x: B  ==  not exists x: not B.
    Formula Inner = Formula::exists(
        F.boundVars(),
        Formula::negate(F.children().front()).toNNF());
    std::optional<Pieces> Sub = toDNFImpl(Inner, Ctx, OC);
    if (!Sub)
      return std::nullopt;
    return negatePieces(*Sub, Ctx, OC);
  }
  }
  assert(false && "unknown formula kind");
  return std::nullopt;
}

} // namespace

std::optional<std::vector<Problem>> pres::toDNF(const Formula &F,
                                                const FormulaContext &Ctx,
                                                OmegaContext &OC) {
  return toDNFImpl(F.toNNF(), Ctx, OC);
}

std::optional<bool> pres::isSatisfiable(const Formula &F,
                                        const FormulaContext &Ctx,
                                        OmegaContext &OC) {
  std::optional<Pieces> Ps = toDNF(F, Ctx, OC);
  if (!Ps)
    return std::nullopt;
  for (const Problem &P : *Ps)
    if (omega::isSatisfiable(P, OC))
      return true;
  return false;
}

std::optional<bool> pres::isValid(const Formula &F, const FormulaContext &Ctx,
                                  OmegaContext &OC) {
  std::optional<bool> Sat = isSatisfiable(Formula::negate(F).toNNF(), Ctx, OC);
  if (!Sat)
    return std::nullopt;
  return !*Sat;
}

std::optional<bool> pres::isEquivalent(const Formula &F, const Formula &G,
                                       const FormulaContext &Ctx,
                                       OmegaContext &OC) {
  // F == G  <=>  (F => G) && (G => F) valid.
  Formula Both = Formula::conj(
      {Formula::implies(F, G), Formula::implies(G, F)});
  return isValid(Both, Ctx, OC);
}

std::optional<std::optional<std::vector<int64_t>>>
pres::findAssignment(const Formula &F, const FormulaContext &Ctx,
                     OmegaContext &OC) {
  std::optional<Pieces> Ps = toDNF(F, Ctx, OC);
  if (!Ps)
    return std::nullopt;
  for (const Problem &P : *Ps) {
    std::optional<std::vector<int64_t>> Sol = findSolution(P, OC);
    if (!Sol)
      continue;
    Sol->resize(Ctx.getNumVars(), 0);
    return std::optional<std::vector<int64_t>>(std::move(*Sol));
  }
  return std::optional<std::vector<int64_t>>(std::nullopt);
}
