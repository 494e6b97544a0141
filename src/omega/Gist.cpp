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

/// Expands \p Row into inequality forms: an equality becomes its matched
/// pair of opposed inequalities.
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

} // namespace

static Problem gistImpl(const Problem &P, const Problem &Given,
                        OmegaContext &Ctx);

Problem omega::gist(const Problem &P, const Problem &Given,
                    OmegaContext &Ctx) {
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
  Problem Result = gistImpl(P, Given, Ctx);
  if (Scope.overflowed())
    return P;
  return Result;
}

static Problem gistImpl(const Problem &P, const Problem &Given,
                        OmegaContext &Ctx) {

  // The gist is defined relative to a consistent context: when p && q has
  // no solutions the new information in p is "False" (the naive loop would
  // otherwise vacuously drop everything).
  {
    Problem Both = Given;
    for (const Constraint &Row : P.constraints())
      Both.addConstraint(Row);
    if (!isSatisfiable(std::move(Both), Ctx)) {
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

  // The naive algorithm, one satisfiability test per candidate:
  //   gist (e:p) q = e : gist p (e:q)   if (not e) && p && q is satisfiable
  //   gist (e:p) q = gist p q           otherwise
  Problem Result = P.cloneLayout();
  for (unsigned I = 0; I != Candidates.size(); ++I) {
    Problem Test = Context;
    // Rest of p: the candidates after this one.
    for (unsigned J = I + 1; J != Candidates.size(); ++J)
      Test.addConstraint(Candidates[J]);
    std::vector<Constraint> Neg;
    appendNegationBranches(Candidates[I], Neg);
    assert(Neg.size() == 1 && "candidates are inequalities");
    Test.addConstraint(Neg[0]);
    ++Ctx.Stats.GistSatTests;
    if (!isSatisfiable(std::move(Test), Ctx))
      continue; // redundant given the rest
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
      if (isSatisfiable(std::move(Test), Ctx))
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

/// Searches the product of the negation branches depth first for a point
/// of P outside every disjunct. When the implication is false, the search
/// order may reach its counterexample only after thousands of
/// satisfiability calls, so a search that has spent a budget proportional
/// to the cost of one witness probe runs that probe, once.
class CounterexampleSearch {
public:
  CounterexampleSearch(const Problem &P, const std::vector<Problem> &Qs,
                       const std::vector<std::vector<Problem>> &NegatedQs,
                       unsigned BaseVars, OmegaContext &Ctx)
      : P(P), Qs(Qs), NegatedQs(NegatedQs), BaseVars(BaseVars), Ctx(Ctx),
        Budget(4 * (P.getNumVars() + Qs.size())) {}

  /// Does some point of P lie outside every disjunct? \p PSatisfiable
  /// skips the satisfiability proof of P itself.
  bool found(bool PSatisfiable) { return search(P, 0, PSatisfiable); }

private:
  bool search(const Problem &Acc, unsigned Index, bool AccSatisfiable) {
    if (!AccSatisfiable) {
      // Counted in calls, not time, so the probe fires at the same point
      // of the search on every run and at every job count.
      if (SatCalls++ == Budget && probeFindsWitness())
        return true;
      if (!isSatisfiable(Acc, Ctx))
        return false;
    }
    if (Index == NegatedQs.size())
      return true;
    for (const Problem &Branch : NegatedQs[Index])
      if (search(conjoinExtending(Acc, Branch, BaseVars), Index + 1,
                 /*AccSatisfiable=*/false))
        return true;
    return false;
  }

  /// One point of P, tested against every disjunct: pinned to the point on
  /// its shared protected columns, a disjunct with no integer solution does
  /// not contain it. findSolution checks its point exactly against P's
  /// rows, and satisfiability under overflow answers "maybe", so the probe
  /// refutes only with a true counterexample and can never disagree with
  /// the search.
  bool probeFindsWitness() {
    std::optional<std::vector<int64_t>> Point = findSolution(P, Ctx);
    if (!Point)
      return false;
    for (const Problem &Q : Qs) {
      Problem Pinned = Q;
      for (VarId V = 0; V != static_cast<VarId>(BaseVars); ++V)
        if (Q.isProtected(V) && Q.involves(V))
          Pinned.addEQ({{V, -1}}, (*Point)[V]);
      if (isSatisfiable(std::move(Pinned), Ctx))
        return false;
    }
    if (Ctx.Trace)
      Ctx.Trace->decision("union probe: a point outside every disjunct",
                          static_cast<uint32_t>(P.getNumVars()),
                          static_cast<uint32_t>(Qs.size()));
    return true;
  }

  const Problem &P;
  const std::vector<Problem> &Qs;
  const std::vector<std::vector<Problem>> &NegatedQs;
  unsigned BaseVars;
  OmegaContext &Ctx;
  /// Satisfiability calls the search itself has made.
  uint64_t SatCalls = 0;
  const uint64_t Budget;
};

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
  return !CounterexampleSearch(P, Qs, NegatedQs, BaseVars, Ctx)
              .found(PSatisfiable);
}

RedGistResult omega::projectAndGist(const Problem &Combined,
                                    const std::vector<bool> &Keep,
                                    OmegaContext &Ctx) {
  ProjectionResult Proj =
      projectOntoMask(Combined, Keep, Ctx,
                      ProjectOptions{/*RemoveRedundant=*/false,
                                     /*DropEmptyPieces=*/true,
                                     /*WantApprox=*/true});
  RedGistResult Result;
  const Problem *Piece = nullptr;
  if (Proj.isSinglePiece()) {
    Piece = &Proj.Pieces.front();
  } else {
    // Splintered: fall back to the real-shadow approximation, as the paper
    // does ("we can easily determine this if the projection does not
    // splinter").
    Piece = &Proj.Approx->Shadow;
    Result.Exact = false;
  }

  Problem Red = Piece->cloneLayout();
  Problem Black = Piece->cloneLayout();
  for (const Constraint &Row : Piece->constraints())
    (Row.isRed() ? Red : Black).addConstraint(Row);
  Result.Gist = gist(Red, Black, Ctx);
  return Result;
}
