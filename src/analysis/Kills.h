//===- analysis/Kills.h - Killing, covering, terminating (Section 4) -----===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 4 predicates, each phrased as an implication between
/// projected constraint systems and decided with the extended Omega test:
///
///  * covers(A, B): write A writes every location B will access before B
///    accesses it (Section 4.2);
///  * terminates(A, B): write B overwrites every location A accessed
///    (Section 4.3);
///  * KillCheck(A, B, C).kills(Level): every value flowing along the
///    A -> C dependence split carried at Level is overwritten by B in
///    between (Section 4.1).
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_ANALYSIS_KILLS_H
#define OMEGA_ANALYSIS_KILLS_H

#include "deps/DependenceAnalysis.h"

#include <optional>
#include <vector>

namespace omega {
namespace analysis {

/// Section 4.2: does every location read (or written) by \p B receive an
/// earlier write from \p A? \p A must be a write to the same array. With
/// \p LoopIndependentOnly the covering instance must come from the same
/// iteration of every common loop (needed to know which other writes the
/// cover can kill, see Section 4.2's discussion of Example 2). The work is
/// charged to \p Ctx, as it is for every predicate here.
bool covers(const ir::AnalyzedProgram &AP, const ir::Access &A,
            const ir::Access &B, OmegaContext &Ctx,
            bool LoopIndependentOnly = false);

/// Section 4.3: is every location accessed by \p A subsequently
/// overwritten by write \p B?
bool terminates(const ir::AnalyzedProgram &AP, const ir::Access &A,
                const ir::Access &B, OmegaContext &Ctx);

/// Section 4.1 for one (victim write A, killer B, read C) triple: is the
/// dependence split of A -> C carried at a level (0 == loop-independent)
/// killed by intervening writes of \p B? The implication's right-hand
/// side -- the B instances between A and C -- does not depend on the
/// level, so it is built once, on first use, and shared by every split
/// checked through one KillCheck.
class KillCheck {
public:
  KillCheck(const ir::AnalyzedProgram &AP, const ir::Access &A,
            const ir::Access &B, const ir::Access &C);

  bool kills(unsigned Level, OmegaContext &Ctx);

  /// kills() for each of \p Levels, in order. The shared right-hand side
  /// is built first; the per-level checks then only read it, so they fan
  /// out through Ctx.forEachIndependent.
  std::vector<bool> killsEach(const std::vector<unsigned> &Levels,
                              OmegaContext &Ctx);

private:
  const std::vector<Problem> &rightHandSide(OmegaContext &Ctx);

  deps::DepSpace Space;
  bool RanksMatch;
  std::optional<std::vector<Problem>> RHS;
};

/// Section 4.5 quick screen for coverage: a dependence whose distance in
/// some common loop excludes 0 cannot cover the first trip of that loop.
/// Returns false when the general coverage test cannot possibly succeed.
bool coverQuickTestPasses(const deps::Dependence &Dep);

} // namespace analysis
} // namespace omega

#endif // OMEGA_ANALYSIS_KILLS_H
