//===- omega/EqElimination.h - Remove equalities by substitution ---------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Equality elimination from the Omega test [Pug91]. Each equality that
/// mentions an eliminable variable is removed by back-substitution: directly
/// when some eliminable variable has a unit coefficient, and otherwise via
/// the "mod-hat" substitution, which introduces a fresh wildcard. Mod-hat
/// is guaranteed to shrink the row's coefficients to a unit only when every
/// variable of the row is eliminable. In a row that mixes eliminable and
/// protected variables the eliminable coefficients can cycle while the
/// other rows' coefficients grow; such a loop ends when the arithmetic
/// saturates or after 10,000 substitutions. Equalities that mention no
/// eliminable variable are left in place, and so are residual strides: a
/// row whose only eliminable variable has a non-unit coefficient among
/// protected ones.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_OMEGA_EQELIMINATION_H
#define OMEGA_OMEGA_EQELIMINATION_H

#include "omega/OmegaContext.h"
#include "omega/Problem.h"

#include <functional>

namespace omega {

enum class SolveResult { Ok, False };

/// Repeatedly removes equalities that involve at least one variable for
/// which \p MayEliminate returns true. The problem is normalized on entry
/// and after each substitution. Returns SolveResult::False if the system is
/// detected to be unsatisfiable along the way; a contradiction found in
/// saturated rows is not trusted and returns Ok.
///
/// Ok does not mean every eliminable variable is gone from the equalities.
/// A residual stride keeps its one eliminable variable (Projection isolates
/// it), and a loop that stopped at saturation or at the iteration cap
/// leaves its rows as they were; the caller's overflow scope tells the
/// saturated case apart.
SolveResult solveEqualities(Problem &P,
                            const std::function<bool(VarId)> &MayEliminate,
                            OmegaContext &Ctx);

/// Convenience overload: every variable may be eliminated (used by the
/// satisfiability test, where no variable needs to survive).
SolveResult solveEqualities(Problem &P, OmegaContext &Ctx);

} // namespace omega

#endif // OMEGA_OMEGA_EQELIMINATION_H
