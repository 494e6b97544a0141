//===- omega/Projection.h - Exact integer projection ----------------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Projection is the basic operation of the extended Omega test (Section 3
/// of the paper): pi_{V}(S) is the set of constraints over the kept
/// variables V that has the same integer solutions for V as S. Because the
/// Omega test computes *integer* shadows, a projection may "splinter" into
/// a union of conjunctions: a dark shadow S0 plus residual pieces
/// S1..Sp, with the real shadow T as an over-approximation
/// (union S_i == pi(S) subseteq T).
///
/// Eliminated variables that survive only inside residual equalities (e.g.
/// strides: "exists w: x == 2w") are retained as unprotected wildcards;
/// this keeps the projection exact in the presence of non-unit
/// coefficients.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_OMEGA_PROJECTION_H
#define OMEGA_OMEGA_PROJECTION_H

#include "omega/OmegaContext.h"
#include "omega/Problem.h"

#include <optional>
#include <vector>

namespace omega {

struct ProjectOptions {
  /// Remove constraints implied by the rest of each output piece (exact
  /// satisfiability-based redundancy elimination). Makes results canonical
  /// and readable; costs one satisfiability test per row.
  bool RemoveRedundant = true;
  /// Drop output pieces that have no integer solutions.
  bool DropEmptyPieces = true;
  /// Also build ProjectionResult::Approx, the real-shadow conjunction. Off
  /// by default: the dependence analyzer reads only the exact pieces.
  bool WantApprox = false;
};

/// The real-shadow over-approximation of a projection as one conjunction.
struct ProjectionApprox {
  /// When every elimination step was exact it is the conjunction the exact
  /// run ended with, taken before the emptiness check, so an integer-empty
  /// projection still yields its real shadow. When a step splintered, a
  /// separate real-shadow-only elimination of the input builds it. Either
  /// way it gets the same redundancy removal as the pieces when
  /// RemoveRedundant is set. When arithmetic overflowed it is the
  /// unprojected input, unpolished: sound, with the eliminated variables
  /// read as existential.
  Problem Shadow;
  /// True when no inexact elimination occurred and nothing overflowed, i.e.
  /// Shadow is itself the exact projection (and Pieces has at most one
  /// element, equal to Shadow row for row when present).
  bool Exact = true;
};

struct ProjectionResult {
  /// Exact disjunction: the union of the pieces is exactly the integer
  /// projection. Pieces may overlap. Eliminated variables are dead except
  /// for wildcards bound in residual stride equalities.
  std::vector<Problem> Pieces;
  /// Set only when ProjectOptions::WantApprox asked for it.
  std::optional<ProjectionApprox> Approx;
  /// Coefficient overflow occurred: the pieces are NOT trustworthy and
  /// clients must fall back to their conservative path.
  bool Poisoned = false;

  bool isSinglePiece() const { return Pieces.size() == 1; }
  /// True when the projection is known to contain no integer points.
  bool isEmpty() const { return Pieces.empty(); }
};

/// Projects \p P onto the variables marked true in \p Keep (which must have
/// one entry per variable of \p P). Unprotected variables are always
/// eliminated regardless of the mask.
ProjectionResult
projectOntoMask(const Problem &P, const std::vector<bool> &Keep,
                OmegaContext &Ctx,
                const ProjectOptions &Opts = ProjectOptions());

/// Convenience wrapper: keeps exactly the listed variables.
ProjectionResult
projectOnto(const Problem &P, const std::vector<VarId> &Keep,
            OmegaContext &Ctx, const ProjectOptions &Opts = ProjectOptions());

/// Removes constraints of \p P implied by the remaining ones (exact,
/// satisfiability-based). Inequalities only; equalities are kept.
void removeRedundantConstraints(Problem &P, OmegaContext &Ctx);

/// The inclusive integer range a variable can take; open ends are
/// represented by HasMin/HasMax == false.
struct IntRange {
  bool HasMin = false, HasMax = false;
  int64_t Min = 0, Max = 0;
  bool Empty = true; // no integer point at all
  /// The bounds are the variable's exact extremes. False when overflow
  /// forced the conservative fully open answer; such a range is sound but
  /// may be looser than the truth, so a caller that wants the exact range
  /// must compute it again. Not part of the rendered range.
  bool Exact = true;

  /// Widens this range to cover \p O too; the union is exact only when
  /// both sides are.
  void include(const IntRange &O);
  std::string toString() const;
};

/// Computes the range of \p V over the integer solutions of \p P by
/// projecting onto {V}. When the projection overflows, the result is the
/// fully open range with Exact cleared.
IntRange computeVarRange(const Problem &P, VarId V, OmegaContext &Ctx);

/// Computes the range of \p V over a union of pieces.
IntRange computeVarRange(const std::vector<Problem> &Pieces, VarId V,
                         OmegaContext &Ctx);

} // namespace omega

#endif // OMEGA_OMEGA_PROJECTION_H
