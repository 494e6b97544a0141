//===- analysis/Implication.h - Implication plumbing for Section 4 -------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 4 analyses all reduce to checking that a conjunction (the
/// left-hand side of a universally quantified implication) is covered by a
/// union of projected pieces. checkImplication() adds the practical
/// plumbing around omega::impliesUnion: pre-filtering pieces that do not
/// intersect the left-hand side, and a single-piece fast path.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_ANALYSIS_IMPLICATION_H
#define OMEGA_ANALYSIS_IMPLICATION_H

#include "omega/Gist.h"
#include "omega/Problem.h"

#include <vector>

namespace omega {
namespace analysis {

/// Does \p LHS imply the union of \p Pieces (over integer points, with
/// unprotected variables existential on both sides)? Conservative: may
/// return false when a piece's stride structure cannot be negated.
/// \p LHSSatisfiable says the caller has already proved \p LHS has an
/// integer point, which skips the vacuous-truth test. The work is charged
/// to \p Ctx.
bool checkImplication(const Problem &LHS, const std::vector<Problem> &Pieces,
                      OmegaContext &Ctx, bool LHSSatisfiable = false);

} // namespace analysis
} // namespace omega

#endif // OMEGA_ANALYSIS_IMPLICATION_H
