//===- analysis/Kills.cpp -------------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Kills.h"

#include "analysis/Implication.h"
#include "obs/Trace.h"
#include "omega/OmegaContext.h"
#include "omega/Projection.h"
#include "omega/Satisfiability.h"

using namespace omega;
using namespace omega::analysis;
using omega::deps::DepSpace;

namespace {

/// Keep-mask over a DepSpace problem that drops the iteration variables of
/// one instance (plus any extra columns the problem acquired).
std::vector<bool> keepAllBut(const Problem &P, const DepSpace &Space,
                             unsigned Inst) {
  std::vector<bool> Keep(P.getNumVars(), true);
  for (unsigned D = 0; D != Space.access(Inst).Loops.size(); ++D)
    Keep[Space.iterVar(Inst, D)] = false;
  return Keep;
}

/// Projects away instance \p Inst from each ordering case and returns the
/// union of the resulting pieces. A poisoned (overflowed) projection
/// yields the empty union: used on the right-hand side of the Section 4
/// implications, that makes the proof fail -- the conservative outcome.
std::vector<Problem> projectAwayInstance(std::vector<Problem> Cases,
                                         const DepSpace &Space, unsigned Inst,
                                         OmegaContext &Ctx) {
  std::vector<Problem> Pieces;
  for (Problem &Case : Cases) {
    ProjectionResult R =
        projectOntoMask(Case, keepAllBut(Case, Space, Inst), Ctx,
                        ProjectOptions{/*RemoveRedundant=*/false,
                                       /*DropEmptyPieces=*/true});
    if (R.Poisoned)
      return {};
    for (Problem &Piece : R.Pieces)
      Pieces.push_back(std::move(Piece));
  }
  return Pieces;
}

} // namespace

bool analysis::covers(const ir::AnalyzedProgram &AP, const ir::Access &A,
                      const ir::Access &B, OmegaContext &Ctx,
                      bool LoopIndependentOnly) {
  assert(A.IsWrite && A.Array == B.Array && "cover needs a same-array write");
  obs::ScopedSpan Span(Ctx.Trace, obs::SpanKind::Cover);
  // Rank-mismatched references (a(x) vs. a(x,y)) only MAY alias; a cover
  // claims the write definitely produces every element the read touches,
  // which needs must-alias reasoning.
  if (A.Subscripts.size() != B.Subscripts.size())
    return false;
  DepSpace Space(AP, {&A, &B});

  // LHS: j in [B].
  Problem LHS = Space.base();
  Space.addIterationSpace(LHS, 1);

  // RHS: exists i in [A] with A(i) << B(j) and equal subscripts.
  Problem RHS = Space.base();
  Space.addIterationSpace(RHS, 0);
  Space.addSubscriptsEqual(RHS, 0, 1);
  std::vector<Problem> Cases;
  if (LoopIndependentOnly) {
    if (!Space.textuallyBefore(0, 1))
      return false;
    Problem Case = RHS;
    Space.addPrecedesAtLevel(Case, 0, 1, 0);
    Cases.push_back(std::move(Case));
  } else {
    Cases = Space.precedesCases(RHS, 0, 1);
  }
  std::vector<Problem> Pieces =
      projectAwayInstance(std::move(Cases), Space, 0, Ctx);

  return checkImplication(LHS, Pieces, Ctx);
}

bool analysis::terminates(const ir::AnalyzedProgram &AP, const ir::Access &A,
                          const ir::Access &B, OmegaContext &Ctx) {
  assert(B.IsWrite && A.Array == B.Array &&
         "termination needs a same-array write");
  obs::ScopedSpan Span(Ctx.Trace, obs::SpanKind::Kill);
  // Must-alias reasoning: see covers().
  if (A.Subscripts.size() != B.Subscripts.size())
    return false;
  DepSpace Space(AP, {&A, &B});

  // LHS: i in [A].
  Problem LHS = Space.base();
  Space.addIterationSpace(LHS, 0);

  // RHS: exists j in [B] with A(i) << B(j) and equal subscripts.
  Problem RHS = Space.base();
  Space.addIterationSpace(RHS, 1);
  Space.addSubscriptsEqual(RHS, 0, 1);
  std::vector<Problem> Pieces =
      projectAwayInstance(Space.precedesCases(RHS, 0, 1), Space, 1, Ctx);

  return checkImplication(LHS, Pieces, Ctx);
}

analysis::KillCheck::KillCheck(const ir::AnalyzedProgram &AP,
                               const ir::Access &A, const ir::Access &B,
                               const ir::Access &C)
    : Space(AP, {&A, &B, &C}),
      // The killer must DEFINITELY overwrite what flows from A to C, which
      // needs must-alias reasoning: rank-mismatched references only may
      // alias, so they cannot kill.
      RanksMatch(B.Subscripts.size() == C.Subscripts.size() &&
                 A.Subscripts.size() == C.Subscripts.size()) {
  assert(B.IsWrite && B.Array == A.Array && A.Array == C.Array &&
         "killer must write the same array");
}

const std::vector<Problem> &
analysis::KillCheck::rightHandSide(OmegaContext &Ctx) {
  if (RHS)
    return *RHS;
  // Exists j in [B] with A(i) << B(j) << C(k) and B(j) =sub= C(k).
  Problem Between = Space.base();
  Space.addIterationSpace(Between, 1);
  Space.addSubscriptsEqual(Between, 1, 2);
  RHS.emplace();
  for (const Problem &Mid : Space.precedesCases(Between, 0, 1)) {
    std::vector<Problem> Full = Space.precedesCases(Mid, 1, 2);
    std::vector<Problem> Projected =
        projectAwayInstance(std::move(Full), Space, 1, Ctx);
    for (Problem &Piece : Projected)
      RHS->push_back(std::move(Piece));
  }
  return *RHS;
}

bool analysis::KillCheck::kills(unsigned Level, OmegaContext &Ctx) {
  obs::ScopedSpan Span(Ctx.Trace, obs::SpanKind::Kill);
  if (!RanksMatch)
    return false;

  // LHS: i in [A], k in [C], A(i) << C(k) at the split's level, equal
  // subscripts.
  Problem LHS = Space.base();
  Space.addIterationSpace(LHS, 0);
  Space.addIterationSpace(LHS, 2);
  Space.addSubscriptsEqual(LHS, 0, 2);
  if (Level == 0 && !Space.textuallyBefore(0, 2))
    return false; // no loop-independent dependence to kill
  Space.addPrecedesAtLevel(LHS, 0, 2, Level);

  return checkImplication(LHS, rightHandSide(Ctx), Ctx);
}

std::vector<bool>
analysis::KillCheck::killsEach(const std::vector<unsigned> &Levels,
                               OmegaContext &Ctx) {
  if (RanksMatch && !Levels.empty() && !RHS) {
    obs::ScopedSpan Span(Ctx.Trace, obs::SpanKind::Kill);
    rightHandSide(Ctx);
  }
  std::vector<char> Killed(Levels.size(), 0);
  Ctx.forEachIndependent(Levels.size(),
                         [&](std::size_t I, OmegaContext &Sub) {
                           Killed[I] = kills(Levels[I], Sub);
                         });
  return std::vector<bool>(Killed.begin(), Killed.end());
}

bool analysis::coverQuickTestPasses(const deps::Dependence &Dep) {
  if (Dep.Splits.empty())
    return false;
  unsigned Common = Dep.Splits.front().Dir.size();
  for (unsigned L = 0; L != Common; ++L) {
    bool ZeroPossible = false;
    for (const deps::DepSplit &S : Dep.Splits) {
      const IntRange &R = S.Dir[L].Range;
      if (R.Empty)
        continue;
      bool LoOk = !R.HasMin || R.Min <= 0;
      bool HiOk = !R.HasMax || R.Max >= 0;
      if (LoOk && HiOk) {
        ZeroPossible = true;
        break;
      }
    }
    if (!ZeroPossible)
      return false; // cannot cover the first trip of loop L
  }
  return true;
}
