//===- oracle/ModelOracle.cpp ---------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "oracle/ModelOracle.h"

#include "omega/Gist.h"
#include "omega/Projection.h"
#include "omega/Satisfiability.h"
#include "presburger/Decision.h"
#include "support/MathUtils.h"

#include <sstream>

using namespace omega;
using namespace omega::oracle;

std::string ModelReport::summary() const {
  std::ostringstream OS;
  OS << Checked << " checks, " << Mismatches.size() << " mismatches";
  for (const std::string &M : Mismatches)
    OS << "\n  " << M;
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Point evaluation
//===----------------------------------------------------------------------===//

bool oracle::evalConstraint(const Constraint &Row,
                            const std::vector<int64_t> &Point) {
  int64_t Sum = Row.getConstant();
  for (VarId V = 0, E = Row.getNumVars(); V != static_cast<VarId>(E); ++V)
    Sum += Row.getCoeff(V) * Point[V];
  return Row.isEquality() ? Sum == 0 : Sum >= 0;
}

bool oracle::evalProblem(const Problem &P, const std::vector<int64_t> &Point) {
  for (const Constraint &Row : P.constraints())
    if (!evalConstraint(Row, Point))
      return false;
  return true;
}

bool oracle::forEachPointFrom(
    std::vector<int64_t> Point, const std::vector<VarId> &Vars, int64_t Lo,
    int64_t Hi, const std::function<bool(const std::vector<int64_t> &)> &Fn) {
  std::function<bool(unsigned)> Rec = [&](unsigned I) -> bool {
    if (I == Vars.size())
      return Fn(Point);
    for (int64_t X = Lo; X <= Hi; ++X) {
      Point[Vars[I]] = X;
      if (Rec(I + 1))
        return true;
    }
    return false;
  };
  return Rec(0);
}

bool oracle::forEachPoint(
    unsigned NumVars, const std::vector<VarId> &Vars, int64_t Lo, int64_t Hi,
    const std::function<bool(const std::vector<int64_t> &)> &Fn) {
  return forEachPointFrom(std::vector<int64_t>(NumVars, 0), Vars, Lo, Hi, Fn);
}

bool oracle::bruteForceSat(const Problem &P, int64_t Box) {
  std::vector<VarId> Vars;
  for (VarId V = 0, E = P.getNumVars(); V != static_cast<VarId>(E); ++V)
    if (!P.isDead(V))
      Vars.push_back(V);
  return forEachPoint(P.getNumVars(), Vars, -Box, Box,
                      [&](const std::vector<int64_t> &Pt) {
                        return evalProblem(P, Pt);
                      });
}

bool oracle::evalFormula(const pres::Formula &F, std::vector<int64_t> &Point,
                         int64_t Box) {
  using Kind = pres::Formula::Kind;
  switch (F.getKind()) {
  case Kind::True:
    return true;
  case Kind::False:
    return false;
  case Kind::AtomK: {
    const pres::Atom &A = F.getAtom();
    int64_t Sum = A.Constant;
    for (const Term &T : A.Terms)
      Sum += T.second * Point[T.first];
    return A.Kind == ConstraintKind::EQ ? Sum == 0 : Sum >= 0;
  }
  case Kind::And:
    for (const pres::Formula &C : F.children())
      if (!evalFormula(C, Point, Box))
        return false;
    return true;
  case Kind::Or:
    for (const pres::Formula &C : F.children())
      if (evalFormula(C, Point, Box))
        return true;
    return false;
  case Kind::Not:
    return !evalFormula(F.children().front(), Point, Box);
  case Kind::Exists:
  case Kind::Forall: {
    bool IsExists = F.getKind() == Kind::Exists;
    // One bound variable at a time keeps the recursion simple; multi-var
    // binders recurse on a formula re-bound over the tail.
    const std::vector<VarId> &Bound = F.boundVars();
    std::function<bool(unsigned)> Rec = [&](unsigned I) -> bool {
      if (I == Bound.size())
        return evalFormula(F.children().front(), Point, Box);
      for (int64_t X = -Box; X <= Box; ++X) {
        Point[Bound[I]] = X;
        bool Inner = Rec(I + 1);
        if (Inner == IsExists)
          return IsExists;
      }
      return !IsExists;
    };
    return Rec(0);
  }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Cross-checks
//===----------------------------------------------------------------------===//

namespace {

/// Guard for arithmetic saturation: verdicts computed under overflow are
/// intentionally conservative and must not be reported as mismatches.
class SaturationGuard {
public:
  SaturationGuard() : Before(arithOverflowFlag()) {}
  bool saturated() const { return !Before && arithOverflowFlag(); }

private:
  bool Before;
};

std::vector<VarId> liveVars(const Problem &P) {
  std::vector<VarId> Vars;
  for (VarId V = 0, E = P.getNumVars(); V != static_cast<VarId>(E); ++V)
    if (!P.isDead(V))
      Vars.push_back(V);
  return Vars;
}

/// Membership of a kept-variable point in \p Piece, decided by pinning.
bool pieceContains(const Problem &Piece, unsigned NumKeep,
                   const std::vector<int64_t> &Point, OmegaContext &Ctx) {
  Problem Pinned = Piece;
  for (unsigned V = 0; V != NumKeep; ++V)
    Pinned.addEQ({{static_cast<VarId>(V), 1}}, -Point[V]);
  return isSatisfiable(std::move(Pinned), Ctx);
}

} // namespace

void oracle::checkSatisfiability(const Problem &P, int64_t Box,
                                 ModelReport &Out, OmegaContext &Ctx) {
  ++Out.Checked;
  bool Model = bruteForceSat(P, Box);

  SaturationGuard Guard;
  bool Exact = isSatisfiable(P, Ctx);
  if (Guard.saturated())
    return; // saturated arithmetic: the conservative answer is by design
  if (Exact != Model) {
    Out.Mismatches.push_back("satisfiability: omega says " +
                             std::string(Exact ? "SAT" : "UNSAT") +
                             ", model says " +
                             std::string(Model ? "SAT" : "UNSAT") + " for " +
                             P.toString());
    return;
  }

  std::optional<std::vector<int64_t>> Witness = findSolution(P, Ctx);
  if (Witness.has_value() != Exact) {
    Out.Mismatches.push_back(
        "witness: findSolution " +
        std::string(Witness ? "produced a point" : "found nothing") +
        " but isSatisfiable says " + (Exact ? "SAT" : "UNSAT") + " for " +
        P.toString());
  } else if (Witness && !evalProblem(P, *Witness)) {
    Out.Mismatches.push_back(
        "witness: findSolution's point violates the constraints of " +
        P.toString());
  }

  if (Model) {
    // The real-shadow relaxation over-approximates: it may answer SAT for
    // integer-infeasible systems but never UNSAT for feasible ones.
    SatOptions Relaxed;
    Relaxed.Mode = SatMode::RealShadowOnly;
    if (!isSatisfiable(P, Ctx, Relaxed))
      Out.Mismatches.push_back(
          "relaxation: real-shadow mode refutes a satisfiable system " +
          P.toString());
  }
}

void oracle::checkProjection(const Problem &P, unsigned NumKeep, int64_t Box,
                             ModelReport &Out, OmegaContext &Ctx) {
  ++Out.Checked;
  std::vector<VarId> Keep;
  for (unsigned V = 0; V != NumKeep; ++V)
    Keep.push_back(static_cast<VarId>(V));

  SaturationGuard Guard;
  ProjectOptions Opts;
  Opts.WantApprox = true;
  ProjectionResult R = projectOnto(P, Keep, Ctx, Opts);
  if (R.Poisoned || Guard.saturated())
    return;

  std::vector<VarId> Rest;
  for (VarId V = static_cast<VarId>(NumKeep),
             E = static_cast<VarId>(P.getNumVars());
       V != E; ++V)
    Rest.push_back(V);

  std::vector<int64_t> Point(P.getNumVars(), 0);
  std::function<bool(unsigned)> Walk = [&](unsigned I) -> bool {
    if (I == NumKeep) {
      bool Ground = forEachPointFrom(Point, Rest, -Box, Box,
                                     [&](const std::vector<int64_t> &Pt) {
                                       return evalProblem(P, Pt);
                                     });
      bool Claimed = false;
      for (const Problem &Piece : R.Pieces)
        if ((Claimed = pieceContains(Piece, NumKeep, Point, Ctx)))
          break;
      if (Claimed != Ground) {
        std::string Pt;
        for (unsigned V = 0; V != NumKeep; ++V)
          Pt += (V ? "," : "(") + std::to_string(Point[V]);
        Out.Mismatches.push_back("projection: point " + Pt +
                                 ") is in the " +
                                 (Ground ? "model" : "pieces") +
                                 " but not the " +
                                 (Ground ? "pieces" : "model") + " for " +
                                 P.toString());
        return true;
      }
      if (Ground && !pieceContains(R.Approx->Shadow, NumKeep, Point, Ctx)) {
        Out.Mismatches.push_back(
            "projection: real-shadow approximation excludes a projected "
            "point of " +
            P.toString());
        return true;
      }
      return false;
    }
    for (int64_t X = -Box; X <= Box; ++X) {
      Point[I] = X;
      if (Walk(I + 1))
        return true;
    }
    return false;
  };
  Walk(0);
}

void oracle::checkGist(const Problem &P, const Problem &Given, int64_t Box,
                       ModelReport &Out, OmegaContext &Ctx) {
  ++Out.Checked;
  SaturationGuard Guard;
  Problem G = gist(P, Given, Ctx);
  if (Guard.saturated())
    return;

  std::vector<int64_t> Point(P.getNumVars(), 0);
  forEachPointFrom(Point, liveVars(P), -Box, Box,
                   [&](const std::vector<int64_t> &Pt) {
                     if (!evalProblem(Given, Pt))
                       return false;
                     bool WithGist = evalProblem(G, Pt);
                     bool WithP = evalProblem(P, Pt);
                     if (WithGist != WithP) {
                       Out.Mismatches.push_back(
                           "gist: (gist && given) disagrees with "
                           "(p && given) at a box point; p = " +
                           P.toString() + ", given = " + Given.toString() +
                           ", gist = " + G.toString());
                       return true;
                     }
                     return false;
                   });
}

void oracle::checkImplication(const Problem &Given, const Problem &P,
                              int64_t Box, ModelReport &Out,
                              OmegaContext &Ctx) {
  ++Out.Checked;
  SaturationGuard Guard;
  bool Claimed = implies(Given, P, Ctx);
  if (Guard.saturated())
    return;

  std::vector<int64_t> Point(Given.getNumVars(), 0);
  bool Counterexample =
      forEachPointFrom(Point, liveVars(Given), -Box, Box,
                       [&](const std::vector<int64_t> &Pt) {
                         return evalProblem(Given, Pt) && !evalProblem(P, Pt);
                       });
  if (Claimed == Counterexample)
    Out.Mismatches.push_back("implication: implies() says " +
                             std::string(Claimed ? "yes" : "no") +
                             " but the model " +
                             (Counterexample ? "has a counterexample"
                                             : "has none") +
                             "; given = " + Given.toString() +
                             ", p = " + P.toString());
}

void oracle::checkFormula(const pres::Formula &F,
                          const pres::FormulaContext &Ctx, int64_t Box,
                          ModelReport &Out, OmegaContext &OC) {
  std::optional<bool> Decided = pres::isSatisfiable(F, Ctx, OC);
  if (!Decided)
    return; // outside the decidable subclass: nothing to compare

  ++Out.Checked;
  std::vector<VarId> All;
  for (VarId V = 0, E = Ctx.getNumVars(); V != static_cast<VarId>(E); ++V)
    All.push_back(V);
  // Free variables are box-guarded by construction, so enumerating every
  // context variable (bound ones get overwritten during evaluation) is an
  // exact existential model.
  bool Model = forEachPoint(Ctx.getNumVars(), All, -Box, Box,
                            [&](const std::vector<int64_t> &Pt) {
                              std::vector<int64_t> Scratch = Pt;
                              return evalFormula(F, Scratch, Box);
                            });
  if (*Decided != Model) {
    Out.Mismatches.push_back("formula sat: decision says " +
                             std::string(*Decided ? "SAT" : "UNSAT") +
                             ", model says " +
                             std::string(Model ? "SAT" : "UNSAT") + " for " +
                             F.toString(Ctx));
    return;
  }

  std::optional<std::optional<std::vector<int64_t>>> Assignment =
      pres::findAssignment(F, Ctx, OC);
  if (!Assignment)
    return;
  if (Assignment->has_value() != *Decided) {
    Out.Mismatches.push_back(
        "formula witness: findAssignment disagrees with isSatisfiable for " +
        F.toString(Ctx));
    return;
  }
  if (*Assignment) {
    std::vector<int64_t> Scratch = **Assignment;
    Scratch.resize(Ctx.getNumVars(), 0);
    if (!evalFormula(F, Scratch, Box))
      Out.Mismatches.push_back(
          "formula witness: findAssignment's point falsifies " +
          F.toString(Ctx));
  }
}
