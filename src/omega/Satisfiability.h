//===- omega/Satisfiability.h - Integer satisfiability via the Omega test -===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The core decision procedure: does a conjunction of integer linear
/// constraints have an integer solution? Equalities are removed by
/// substitution, then variables are eliminated one at a time, preferring
/// exact eliminations; when an elimination is inexact the real shadow,
/// dark shadow and splinters resolve the answer (Section 3 of the paper).
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_OMEGA_SATISFIABILITY_H
#define OMEGA_OMEGA_SATISFIABILITY_H

#include "omega/OmegaContext.h"
#include "omega/Problem.h"

#include <optional>
#include <vector>

namespace omega {

/// How to resolve inexact eliminations.
enum class SatMode {
  /// Full Omega test: dark shadow plus splinters; exact integer answer.
  Exact,
  /// Classic Fourier-Motzkin real relaxation: decide from the real shadow
  /// alone. May report "satisfiable" for systems with only rational
  /// solutions; this is the conservative baseline older dependence tests
  /// effectively use, kept for the ablation benchmarks.
  RealShadowOnly,
};

/// Options controlling the satisfiability search. The defaults implement
/// the full Omega test; the flags exist for the ablation benchmarks.
struct SatOptions {
  SatMode Mode = SatMode::Exact;
};

/// Returns true iff \p P has an integer solution. \p P is taken by value;
/// the search mutates its copy freely. Counters go to \p Ctx.
bool isSatisfiable(Problem P, OmegaContext &Ctx,
                   const SatOptions &Opts = SatOptions());

/// Finds one integer solution of \p P (a value for every variable,
/// including wildcards; dead variables get 0), or nullopt when \p P is
/// unsatisfiable. Variables are pinned one at a time to an endpoint of
/// their exact projected range, so the search never backtracks. Every
/// returned point is verified against the original rows before it is
/// handed back, so a witness is trustworthy even when the SAT verdict
/// itself was a conservative answer under coefficient saturation —
/// saturated queries yield nullopt rather than a fabricated point.
std::optional<std::vector<int64_t>>
findSolution(const Problem &P, OmegaContext &Ctx);

} // namespace omega

#endif // OMEGA_OMEGA_SATISFIABILITY_H
