//===- analysis/Implication.cpp -------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Implication.h"

#include "omega/Gist.h"
#include "omega/Satisfiability.h"

using namespace omega;
using namespace omega::analysis;

bool analysis::checkImplication(const Problem &LHS,
                                const std::vector<Problem> &Pieces,
                                OmegaContext &Ctx, bool LHSSatisfiable) {
  if (!LHSSatisfiable && !isSatisfiable(LHS, Ctx))
    return true; // vacuous

  // Drop pieces disjoint from the left-hand side: they cannot help cover
  // it, and every negation branch they would add slows the union check.
  unsigned SharedVars = LHS.getNumVars();
  std::vector<Problem> Relevant;
  for (const Problem &Piece : Pieces)
    if (isSatisfiable(conjoinExtending(LHS, Piece, SharedVars), Ctx))
      Relevant.push_back(Piece);
  if (Relevant.empty())
    return false;

  // Fast path: one piece alone often suffices (the common case in the
  // paper's examples). The left-hand side is known satisfiable from here
  // on, so no union check proves that again.
  for (const Problem &Piece : Relevant)
    if (impliesUnion(LHS, {Piece}, Ctx, /*PSatisfiable=*/true))
      return true;
  if (Relevant.size() == 1)
    return false;
  return impliesUnion(LHS, Relevant, Ctx, /*PSatisfiable=*/true);
}
