//===- oracle/ModelOracle.h - Bounded-model ground truth for the core -----===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A brute-force oracle for the Omega core: satisfiability, projection,
/// gist, and implication of small Problems -- and satisfiability of small
/// Presburger formulas -- decided by exhaustive enumeration over a box.
/// Exact whenever the input confines every variable to the box, which the
/// generators in Generate.h guarantee by construction.
///
/// Every check appends human-readable mismatch descriptions to a
/// ModelReport instead of asserting, so the fuzz driver can shrink and
/// persist a reproducer. Satisfiable verdicts are additionally re-verified
/// with a concrete witness point (findSolution / findAssignment)
/// substituted back into the constraints -- a second, independent
/// refutation channel for a wrong "satisfiable".
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_ORACLE_MODELORACLE_H
#define OMEGA_ORACLE_MODELORACLE_H

#include "omega/OmegaContext.h"
#include "omega/Problem.h"
#include "presburger/Formula.h"

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace omega {
namespace oracle {

/// Accumulated verdict of one or more oracle checks.
struct ModelReport {
  unsigned Checked = 0;
  std::vector<std::string> Mismatches;

  bool ok() const { return Mismatches.empty(); }
  std::string summary() const;
};

//===----------------------------------------------------------------------===//
// Point evaluation
//===----------------------------------------------------------------------===//

/// Evaluates one constraint at a full assignment (indexed by VarId).
bool evalConstraint(const Constraint &Row, const std::vector<int64_t> &Point);

/// Evaluates every constraint of \p P at \p Point.
bool evalProblem(const Problem &P, const std::vector<int64_t> &Point);

/// Enumerates all assignments of [Lo, Hi] to the variables in \p Vars,
/// holding the other coordinates of \p Point fixed; stops early when \p Fn
/// returns true. Returns whether any call returned true.
bool forEachPointFrom(std::vector<int64_t> Point,
                      const std::vector<VarId> &Vars, int64_t Lo, int64_t Hi,
                      const std::function<bool(const std::vector<int64_t> &)>
                          &Fn);

/// Enumerates all points of [Lo, Hi]^|Vars| (other coordinates zero).
bool forEachPoint(unsigned NumVars, const std::vector<VarId> &Vars, int64_t Lo,
                  int64_t Hi,
                  const std::function<bool(const std::vector<int64_t> &)> &Fn);

/// Exhaustive satisfiability: enumerates every live variable of \p P over
/// [-Box, Box]. Exact when \p P confines all its variables to the box.
bool bruteForceSat(const Problem &P, int64_t Box);

/// Evaluates a Presburger formula at \p Point, deciding quantifiers by
/// enumerating the bound variable over [-Box, Box]. Exact for the
/// box-guarded formulas Generate.h produces. \p Point must have one entry
/// per context variable and is scribbled on during evaluation.
bool evalFormula(const pres::Formula &F, std::vector<int64_t> &Point,
                 int64_t Box);

//===----------------------------------------------------------------------===//
// Cross-checks against the decision procedures
//===----------------------------------------------------------------------===//

/// isSatisfiable (exact mode) against the bounded model, the witness check
/// on findSolution, and the real-shadow-relaxation monotonicity invariant
/// (a satisfiable system must stay satisfiable under SatMode::RealShadowOnly).
void checkSatisfiability(const Problem &P, int64_t Box, ModelReport &Out,
                         OmegaContext &Ctx);

/// projectOnto the first \p NumKeep variables against the model: a point of
/// the box belongs to some output piece iff it extends to a full solution.
/// Piece membership is decided by pinning the kept variables and asking
/// isSatisfiable (whose own verdicts checkSatisfiability validates
/// independently). Also checks the real-shadow approximation is a superset.
void checkProjection(const Problem &P, unsigned NumKeep, int64_t Box,
                     ModelReport &Out, OmegaContext &Ctx);

/// gist(P given Given) against the model: (gist && Given) must have exactly
/// the box points of (P && Given). Layouts of \p P and \p Given must match.
void checkGist(const Problem &P, const Problem &Given, int64_t Box,
               ModelReport &Out, OmegaContext &Ctx);

/// implies(Given, P) against the model (forall box points: Given => P).
/// Exact when \p Given confines every variable to the box.
void checkImplication(const Problem &Given, const Problem &P, int64_t Box,
                      ModelReport &Out, OmegaContext &Ctx);

/// pres::isSatisfiable / findAssignment against formula evaluation over the
/// box. Formulas the decision procedure reports outside its subclass are
/// skipped (not counted as checked).
void checkFormula(const pres::Formula &F, const pres::FormulaContext &Ctx,
                  int64_t Box, ModelReport &Out, OmegaContext &OC);

} // namespace oracle
} // namespace omega

#endif // OMEGA_ORACLE_MODELORACLE_H
