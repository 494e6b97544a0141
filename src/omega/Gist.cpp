//===- omega/Gist.cpp -----------------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "omega/Gist.h"

#include "obs/Trace.h"
#include "omega/OmegaContext.h"
#include "omega/Projection.h"
#include "omega/Satisfiability.h"

#include <algorithm>
#include <map>

using namespace omega;

void omega::appendNegationBranches(const Constraint &Row,
                                   std::vector<Constraint> &Out) {
  if (Row.isInequality()) {
    Constraint Neg = Row;
    Neg.negateGEQ();
    Out.push_back(std::move(Neg));
    return;
  }
  // not (f == 0)  <=>  (f - 1 >= 0) or (-f - 1 >= 0).
  Constraint Pos = Row;
  Pos.setKind(ConstraintKind::GEQ);
  Pos.addToConstant(-1);
  Out.push_back(std::move(Pos));
  Constraint Neg = Row;
  Neg.setKind(ConstraintKind::GEQ);
  Neg.negateForm();
  Neg.addToConstant(-1);
  Out.push_back(std::move(Neg));
}

namespace {

/// Does \p By (an inequality or equality) alone imply the inequality \p E?
bool impliedBySingle(const Constraint &E, const Constraint &By) {
  assert(E.isInequality() && "gist candidates are inequalities");
  if (By.isInequality())
    // Same normal, at-least-as-tight constant: v.x + c' >= 0 implies
    // v.x + c >= 0 iff c >= c'.
    return By.sameCoeffs(E) && E.getConstant() >= By.getConstant();
  // Equality v.x + c' == 0 pins v.x; check both orientations.
  if (By.sameCoeffs(E))
    return E.getConstant() >= By.getConstant();
  Constraint Flipped = By;
  Flipped.negateForm();
  if (Flipped.sameCoeffs(E))
    return E.getConstant() >= Flipped.getConstant();
  return false;
}

/// Is E implied by the conjunction of E1 and E2 (each taken as an
/// inequality form v.x + c >= 0)? Checks for rational multipliers
/// lambda1, lambda2 >= 0 with lambda1*v1 + lambda2*v2 == vE and
/// lambda1*c1 + lambda2*c2 <= cE, using exact cross-product arithmetic.
bool impliedByPairForms(const Constraint &E, const Constraint &E1,
                        const Constraint &E2) {
  unsigned N = E.getNumVars();
  // Find coordinates (i, j) where (v1, v2) are linearly independent.
  for (unsigned I = 0; I != N; ++I) {
    for (unsigned J = I + 1; J != N; ++J) {
      __int128 Det = (__int128)E1.getCoeff(I) * E2.getCoeff(J) -
                     (__int128)E1.getCoeff(J) * E2.getCoeff(I);
      if (Det == 0)
        continue;
      // lambda1 = N1 / Det, lambda2 = N2 / Det.
      __int128 N1 = (__int128)E.getCoeff(I) * E2.getCoeff(J) -
                    (__int128)E.getCoeff(J) * E2.getCoeff(I);
      __int128 N2 = (__int128)E1.getCoeff(I) * E.getCoeff(J) -
                    (__int128)E1.getCoeff(J) * E.getCoeff(I);
      if (Det < 0) {
        Det = -Det;
        N1 = -N1;
        N2 = -N2;
      }
      if (N1 < 0 || N2 < 0)
        return false;
      // Verify every coordinate: N1*v1 + N2*v2 == Det*vE.
      for (unsigned K = 0; K != N; ++K)
        if (N1 * E1.getCoeff(K) + N2 * E2.getCoeff(K) !=
            Det * (__int128)E.getCoeff(K))
          return false;
      // Constant condition: N1*c1 + N2*c2 <= Det*cE.
      return N1 * E1.getConstant() + N2 * E2.getConstant() <=
             Det * (__int128)E.getConstant();
    }
  }
  return false; // parallel normals: single-constraint check covers this
}

/// Expands \p Row into the inequality forms it contributes for the
/// inner-product and pair checks (equalities contribute both orientations).
void appendForms(const Constraint &Row, std::vector<Constraint> &Out) {
  if (Row.isInequality()) {
    Out.push_back(Row);
    return;
  }
  Constraint Pos = Row;
  Pos.setKind(ConstraintKind::GEQ);
  Out.push_back(Pos);
  Constraint Neg = Pos;
  Neg.negateForm();
  Out.push_back(std::move(Neg));
}

/// Inner product of the normals of two rows.
__int128 normalDot(const Constraint &A, const Constraint &B) {
  __int128 Dot = 0;
  for (unsigned I = 0, E = A.getNumVars(); I != E; ++I)
    Dot += (__int128)A.getCoeff(I) * B.getCoeff(I);
  return Dot;
}

} // namespace

static Problem gistImpl(const Problem &P, const Problem &Given,
                        const GistOptions &Opts, OmegaContext &Ctx);

Problem omega::gist(const Problem &P, const Problem &Given,
                    const GistOptions &Opts, OmegaContext &Ctx) {
  assert(P.getNumVars() == Given.getNumVars() &&
         "gist arguments must share one variable layout");
  // Span first, counter second: the span's own delta must include this
  // call so top-level spans sum to the context counters.
  obs::ScopedSpan Span(Ctx.Trace, obs::SpanKind::Gist,
                       static_cast<uint32_t>(P.getNumVars()),
                       static_cast<uint32_t>(P.constraints().size() +
                                             Given.constraints().size()));
  ++Ctx.Stats.GistCalls;

  // Coefficient-overflow containment: if anything saturates while
  // computing the gist, fall back to P itself, which satisfies the gist
  // equation trivially (it is just not minimal).
  OverflowScope Scope;
  Problem Result = gistImpl(P, Given, Opts, Ctx);
  if (Scope.overflowed())
    return P;
  return Result;
}

static Problem gistImpl(const Problem &P, const Problem &Given,
                        const GistOptions &Opts, OmegaContext &Ctx) {

  // The gist is defined relative to a consistent context: when p && q has
  // no solutions the new information in p is "False" (the naive loop would
  // otherwise vacuously drop everything).
  {
    Problem Both = Given;
    for (const Constraint &Row : P.constraints())
      Both.addConstraint(Row);
    if (!isSatisfiable(std::move(Both), SatOptions(), Ctx)) {
      Problem False = P.cloneLayout();
      False.addGEQ({}, -1);
      return False;
    }
  }

  // Convert p's equalities into matched inequality pairs (Section 3.3).
  std::vector<Constraint> Candidates;
  for (const Constraint &Row : P.constraints())
    appendForms(Row, Candidates);

  // Context starts as q; accepted candidates are appended as we go.
  Problem Context = Given;

  // Inequality forms of the context for the fast checks.
  std::vector<Constraint> ContextForms;
  for (const Constraint &Row : Given.constraints())
    appendForms(Row, ContextForms);

  enum class State { Undecided, Keep, Drop };
  std::vector<State> States(Candidates.size(), State::Undecided);

  if (Opts.UseFastChecks) {
    // Check 1: drop candidates implied by any single constraint of q or of
    // the other candidates (checking others first keeps one of a duplicate
    // pair).
    for (unsigned I = 0; I != Candidates.size(); ++I) {
      bool Implied = false;
      for (const Constraint &Row : Given.constraints())
        if (impliedBySingle(Candidates[I], Row)) {
          Implied = true;
          break;
        }
      for (unsigned J = 0; !Implied && J != Candidates.size(); ++J)
        if (J != I && States[J] != State::Drop &&
            Candidates[J].sameCoeffs(Candidates[I]) &&
            (Candidates[I].getConstant() > Candidates[J].getConstant() ||
             (Candidates[I].getConstant() == Candidates[J].getConstant() &&
              J < I)))
          Implied = true;
      if (Implied) {
        States[I] = State::Drop;
        ++Ctx.Stats.GistFastDrops;
      }
    }

    // Check 3: a candidate with no supporting constraint (positive inner
    // product of normals among q's forms and the other live candidates)
    // must be in the gist: nothing else can bound in its direction, so
    // (not e) && p && q stays satisfiable whenever p && q is.
    for (unsigned I = 0; I != Candidates.size(); ++I) {
      if (States[I] != State::Undecided)
        continue;
      bool Supported = false;
      for (const Constraint &Form : ContextForms)
        if (normalDot(Candidates[I], Form) > 0) {
          Supported = true;
          break;
        }
      for (unsigned J = 0; !Supported && J != Candidates.size(); ++J)
        if (J != I && States[J] != State::Drop &&
            normalDot(Candidates[I], Candidates[J]) > 0)
          Supported = true;
      if (!Supported) {
        States[I] = State::Keep;
        ++Ctx.Stats.GistFastKeeps;
      }
    }

    // Check 4: drop candidates implied by some pair of constraints drawn
    // from q and the still-live candidates. The live set is recomputed per
    // candidate so that sequential drops stay sound by transitivity (a
    // dropped row is implied by rows that are themselves implied by what
    // remains).
    for (unsigned I = 0; I != Candidates.size(); ++I) {
      if (States[I] != State::Undecided)
        continue;
      std::vector<Constraint> LiveForms = ContextForms;
      for (unsigned J = 0; J != Candidates.size(); ++J)
        if (J != I && States[J] != State::Drop)
          LiveForms.push_back(Candidates[J]);
      bool Implied = false;
      for (unsigned A = 0; !Implied && A != LiveForms.size(); ++A)
        for (unsigned B = A + 1; !Implied && B != LiveForms.size(); ++B)
          Implied = impliedByPairForms(Candidates[I], LiveForms[A],
                                       LiveForms[B]);
      if (Implied) {
        States[I] = State::Drop;
        ++Ctx.Stats.GistFastDrops;
      }
    }
  }

  if (Ctx.Trace) {
    unsigned Drops = 0, Keeps = 0;
    for (State S : States) {
      Drops += S == State::Drop;
      Keeps += S == State::Keep;
    }
    if (Drops || Keeps)
      Ctx.Trace->decision("gist fast-check: " + std::to_string(Drops) +
                              " dropped, " + std::to_string(Keeps) + " kept",
                          static_cast<uint32_t>(P.getNumVars()),
                          static_cast<uint32_t>(Candidates.size()));
  }

  // Naive algorithm on whatever remains undecided:
  //   gist (e:p) q = e : gist p (e:q)   if (not e) && p && q is satisfiable
  //   gist (e:p) q = gist p q           otherwise
  Problem Result = P.cloneLayout();
  for (unsigned I = 0; I != Candidates.size(); ++I) {
    if (States[I] == State::Drop)
      continue;
    if (States[I] == State::Undecided) {
      Problem Test = Context;
      // Rest of p: undecided or kept candidates after this one.
      for (unsigned J = I + 1; J != Candidates.size(); ++J)
        if (States[J] != State::Drop)
          Test.addConstraint(Candidates[J]);
      std::vector<Constraint> Neg;
      appendNegationBranches(Candidates[I], Neg);
      assert(Neg.size() == 1 && "candidates are inequalities");
      Test.addConstraint(Neg[0]);
      ++Ctx.Stats.GistSatTests;
      if (!isSatisfiable(std::move(Test), SatOptions(), Ctx))
        continue; // redundant given the rest
    }
    Result.addConstraint(Candidates[I]);
    Context.addConstraint(Candidates[I]);
  }

  // Re-merge matched inequality pairs into equalities.
  [[maybe_unused]] auto NR = Result.normalize();
  assert(NR == Problem::NormalizeResult::Ok &&
         "gist of consistent problems cannot be false");
  return Result;
}

bool omega::implies(const Problem &Given, const Problem &P,
                    OmegaContext &Ctx) {
  assert(P.getNumVars() == Given.getNumVars() &&
         "implies arguments must share one variable layout");
  for (const Constraint &Row : P.constraints()) {
    std::vector<Constraint> Neg;
    appendNegationBranches(Row, Neg);
    for (const Constraint &Branch : Neg) {
      Problem Test = Given;
      Test.addConstraint(Branch);
      if (isSatisfiable(std::move(Test), SatOptions(), Ctx))
        return false;
    }
  }
  return true;
}

std::optional<std::vector<Problem>> omega::negateProblem(const Problem &P) {
  // Count, per unprotected variable, how many rows use it.
  std::vector<unsigned> RowsUsing(P.getNumVars(), 0);
  for (const Constraint &Row : P.constraints())
    for (VarId V = 0, E = P.getNumVars(); V != static_cast<VarId>(E); ++V)
      if (Row.involves(V) && !P.isProtected(V))
        ++RowsUsing[V];

  std::vector<Problem> Out;
  for (const Constraint &Row : P.constraints()) {
    std::vector<VarId> Wildcards;
    for (VarId V = 0, E = P.getNumVars(); V != static_cast<VarId>(E); ++V)
      if (Row.involves(V) && !P.isProtected(V))
        Wildcards.push_back(V);

    if (Wildcards.empty()) {
      std::vector<Constraint> Branches;
      appendNegationBranches(Row, Branches);
      for (const Constraint &Branch : Branches) {
        Problem Piece = P.cloneLayout();
        Piece.addConstraint(Branch);
        Out.push_back(std::move(Piece));
      }
      continue;
    }
    // Simple stride: an equality with one wildcard appearing nowhere else.
    if (!Row.isEquality() || Wildcards.size() != 1 ||
        RowsUsing[Wildcards.front()] != 1)
      return std::nullopt;
    VarId W = Wildcards.front();
    int64_t A = absVal(Row.getCoeff(W));
    if (A == 1)
      continue; // exists w: f + w == 0 is vacuously true
    // Row: f + a*w + c == 0 means f + c == 0 (mod a); the negation is the
    // union over residues r in [1, a-1] of exists w': f + c - r + a*w' == 0.
    for (int64_t Residue = 1; Residue < A; ++Residue) {
      Problem Piece = P.cloneLayout();
      VarId NewW = Piece.addWildcard();
      Constraint New = Row;
      New.setCoeff(W, 0);
      New.addToConstant(-Residue);
      New.resizeVars(Piece.getNumVars());
      New.setCoeff(NewW, Row.getCoeff(W));
      Piece.addConstraint(New);
      Out.push_back(std::move(Piece));
    }
  }
  return Out;
}

Problem omega::conjoinExtending(const Problem &A, const Problem &B,
                                unsigned SharedVars) {
  Problem Result = A;
  std::map<VarId, VarId> Remap;
  for (const Constraint &Row : B.constraints()) {
    Result.addRow(Row.getKind(), Row.isRed());
    Result.constraints().back().setConstant(Row.getConstant());
    for (VarId V = 0, E = Row.getNumVars(); V != static_cast<VarId>(E); ++V) {
      int64_t C = Row.getCoeff(V);
      if (C == 0)
        continue;
      VarId Target = V;
      if (static_cast<unsigned>(V) >= SharedVars || !B.isProtected(V)) {
        auto [It, Inserted] = Remap.try_emplace(V, -1);
        if (Inserted)
          It->second = Result.addWildcard();
        Target = It->second;
      }
      Result.constraints().back().setCoeff(Target, C);
    }
  }
  return Result;
}

namespace {

/// Conjoins one negation piece (source layout plus at most one fresh
/// wildcard column) onto the accumulator, remapping that extra column.
Problem conjoinBranch(const Problem &Acc, const Problem &Branch,
                      unsigned BaseVars) {
  return conjoinExtending(Acc, Branch, BaseVars);
}

/// Searches the product of the negation branches depth first for a point
/// of \p Acc outside every disjunct. \p AccSatisfiable skips the
/// satisfiability proof of \p Acc itself when the caller already has one.
bool hasCounterexample(const Problem &Acc,
                       const std::vector<std::vector<Problem>> &NegatedQs,
                       unsigned Index, unsigned BaseVars, OmegaContext &Ctx,
                       bool AccSatisfiable = false) {
  if (!AccSatisfiable && !isSatisfiable(Acc, SatOptions(), Ctx))
    return false;
  if (Index == NegatedQs.size())
    return true;
  for (const Problem &Branch : NegatedQs[Index])
    if (hasCounterexample(conjoinBranch(Acc, Branch, BaseVars), NegatedQs,
                          Index + 1, BaseVars, Ctx))
      return true;
  return false;
}

/// The sat-free part of (gist Q given P) for one negation branch: does a
/// single row of \p P contradict \p Branch? Only a branch over shared
/// protected columns qualifies; it lands on the same columns of every
/// accumulator of the search, so a branch this drops is one the search
/// would have found infeasible on every path.
bool contradictedByRow(const Problem &P, const Problem &Branch,
                       unsigned BaseVars) {
  assert(Branch.getNumConstraints() == 1 && "a branch is one negated row");
  const Constraint &Row = Branch.constraints().front();
  // not (v.x + c >= 0)  <=>  -v.x + ~c >= 0, where ~c == -c - 1 exactly.
  Constraint Negated(ConstraintKind::GEQ, P.getNumVars());
  for (VarId V = 0, E = Row.getNumVars(); V != static_cast<VarId>(E); ++V) {
    int64_t C = Row.getCoeff(V);
    if (C == 0)
      continue;
    if (static_cast<unsigned>(V) >= BaseVars || !Branch.isProtected(V))
      return false;
    Negated.setCoeff(V, -C);
  }
  Negated.setConstant(~Row.getConstant());
  for (const Constraint &By : P.constraints())
    if (impliedBySingle(Negated, By))
      return true;
  return false;
}

} // namespace

bool omega::impliesUnion(const Problem &P, const std::vector<Problem> &Qs,
                         OmegaContext &Ctx, bool PSatisfiable) {
  // The shared base layout is the common prefix; any columns beyond it
  // (projection-minted wildcards on either side) are existential and get
  // remapped apart when branches are conjoined. Unprotected columns below
  // the base are remapped too, so the minimum is safe.
  unsigned BaseVars = P.getNumVars();
  std::vector<std::vector<Problem>> NegatedQs;
  for (const Problem &Q : Qs) {
    BaseVars = std::min(BaseVars, Q.getNumVars());
    if (Q.getNumConstraints() == 0)
      return true; // a True disjunct makes the union True
    std::optional<std::vector<Problem>> Neg = negateProblem(Q);
    if (!Neg)
      return false; // cannot negate: fail conservatively
    NegatedQs.push_back(std::move(*Neg));
  }
  // Negate only what P does not already decide (Section 3.3): drop the
  // branches a single row of P contradicts. A disjunct left with no branch
  // is implied by P outright.
  for (std::vector<Problem> &Branches : NegatedQs) {
    std::erase_if(Branches, [&](const Problem &Branch) {
      return contradictedByRow(P, Branch, BaseVars);
    });
    if (Branches.empty())
      return true;
  }
  // Fewest branches first: the search fans out as late as possible.
  std::stable_sort(NegatedQs.begin(), NegatedQs.end(),
                   [](const std::vector<Problem> &A,
                      const std::vector<Problem> &B) {
                     return A.size() < B.size();
                   });
  return !hasCounterexample(P, NegatedQs, 0, BaseVars, Ctx, PSatisfiable);
}

RedGistResult omega::projectAndGist(const Problem &Combined,
                                    const std::vector<bool> &Keep,
                                    const GistOptions &Opts,
                                    OmegaContext &Ctx) {
  ProjectionResult Proj = projectOntoMask(Combined, Keep,
                                          ProjectOptions{/*RemoveRedundant=*/
                                                         false,
                                                         /*DropEmptyPieces=*/
                                                         true},
                                          Ctx);
  RedGistResult Result;
  const Problem *Piece = nullptr;
  if (Proj.isSinglePiece()) {
    Piece = &Proj.Pieces.front();
  } else {
    // Splintered: fall back to the real-shadow approximation, as the paper
    // does ("we can easily determine this if the projection does not
    // splinter").
    Piece = &Proj.Approx;
    Result.Exact = false;
  }

  Problem Red = Piece->cloneLayout();
  Problem Black = Piece->cloneLayout();
  for (const Constraint &Row : Piece->constraints())
    (Row.isRed() ? Red : Black).addConstraint(Row);
  Result.Gist = gist(Red, Black, Opts, Ctx);
  return Result;
}
