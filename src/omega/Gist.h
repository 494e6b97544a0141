//===- omega/Gist.h - Gists and implication tautology checks -------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 3.3 of the paper: (gist p given q) is a minimal subset of p's
/// constraints such that (gist p given q) && q == p && q -- "the new
/// information contained in p, given that we already know q". The same
/// machinery answers whether q => p is a tautology
/// ((gist p given q) == True) and, via negation expansion, whether an
/// implication with a disjunctive right-hand side holds.
///
/// Both problems passed to these functions must share an identical variable
/// layout (same variable table); build them in one space or via
/// Problem::cloneLayout().
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_OMEGA_GIST_H
#define OMEGA_OMEGA_GIST_H

#include "omega/OmegaContext.h"
#include "omega/Problem.h"

#include <optional>
#include <vector>

namespace omega {

/// Computes (gist P given Given). The result is a conjunction over the same
/// variable layout; an empty result means Given => P ("True"). Each of P's
/// rows (an equality as its two inequalities) costs one satisfiability
/// test: the paper's naive algorithm.
Problem gist(const Problem &P, const Problem &Given, OmegaContext &Ctx);

/// Returns true iff Given => P is a tautology (over integer points).
bool implies(const Problem &Given, const Problem &P, OmegaContext &Ctx);

/// Returns true iff P => (Qs[0] || Qs[1] || ...) is a tautology. An empty
/// union is False, so this returns true only if P is unsatisfiable.
///
/// Unprotected variables are treated as existentially quantified on both
/// sides (P's wildcards widen the left-hand side; Q's wildcards are
/// handled by stride-aware negation). If some Q has wildcard structure the
/// negation machinery cannot express, the check conservatively returns
/// false ("cannot prove the implication"), which is the sound direction
/// for every analysis in Section 4.
///
/// Following Section 3.3, only what P does not already imply is negated:
/// a negation branch that a single row of P contradicts is dropped before
/// the search (no satisfiability call), and a disjunct left with no branch
/// proves the implication outright. Pass \p PSatisfiable when P is already
/// known to be satisfiable, so the search does not prove it again.
///
/// A search that has made 4 * (P's variables + disjuncts) satisfiability
/// calls tests one point of P (findSolution) against every disjunct, once;
/// a point outside all of them answers false at once. The probe refutes
/// only with an exact witness, so the answer is the search's, and the
/// budget counts calls, not time, so it does not depend on the schedule.
bool impliesUnion(const Problem &P, const std::vector<Problem> &Qs,
                  OmegaContext &Ctx, bool PSatisfiable = false);

/// The logical negation of \p P (with its unprotected variables read as
/// existentials) as a union of problems over the same layout; each result
/// may add one fresh wildcard column for a stride residue. Returns nullopt
/// when P's wildcard structure is not a set of simple strides (each
/// unprotected variable confined to a single equality).
std::optional<std::vector<Problem>> negateProblem(const Problem &P);

/// Conjoins \p B onto \p A. Both must extend one shared base layout of
/// \p SharedVars variables; columns of B beyond that (fresh wildcards) and
/// B's unprotected columns (projection strides) are remapped onto fresh
/// wildcards of the result, so existentials never conflate.
Problem conjoinExtending(const Problem &A, const Problem &B,
                         unsigned SharedVars);

/// Appends to \p Out the constraint(s) whose disjunction is the negation of
/// \p Row: one row for an inequality (f >= 0 becomes -f - 1 >= 0), two for
/// an equality (f >= 1 and -f >= 1).
void appendNegationBranches(const Constraint &Row,
                            std::vector<Constraint> &Out);

/// Combined projection + gist (Section 3.3.2): \p Combined holds the red
/// rows (p) and black rows (q) in one problem; the variables not marked in
/// \p Keep are projected away, and the gist of the surviving red rows given
/// the black rows is returned. Exact is false when the projection
/// splintered and the result was computed from the real shadow instead.
struct RedGistResult {
  Problem Gist;
  bool Exact = true;
};
RedGistResult projectAndGist(const Problem &Combined,
                             const std::vector<bool> &Keep,
                             OmegaContext &Ctx);

} // namespace omega

#endif // OMEGA_OMEGA_GIST_H
