//===- analysis/Refine.h - Dependence distance refinement (Section 4.4) --===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Refinement tightens the distance vector of a dependence from a write A
/// to an access B: if every iteration of B that receives the dependence
/// also receives it from a *more recent* iteration of A at distance D, the
/// dependence can be refined to D. Candidates are generated the way the
/// paper prescribes: fix each loop's distance to its minimum possible
/// value over the unrefined dependence, outermost first, verifying each
/// extension with the extended Omega test and stopping at the first
/// failure. Refinement is a whole-dependence transformation -- it can move
/// a dependence to a deeper carried level (Example 4's trapezoidal loop
/// refines (0+,1) to (0,1)) -- so it rewrites the split list. The
/// trapezoidal, partial, and coupled cases (Examples 3-6) that [Bra88] and
/// [Rib90] cannot handle all work here.
///
/// Refinement starts from what phase 1 proved. The unrefined dependence's
/// splits already hold each level's distance ranges, so a level is
/// projected again only once a distance has been pinned in it, or where
/// overflow left phase 1's range inexact (IntRange::Exact), and no range
/// is computed twice for the same level problem. A level that was never
/// pinned keeps its phase-1 split without another solver call.
///
/// Refinement keeps what it pins. Pinning Delta_L to c, the least exact
/// minimum over the levels, leaves the range [c,c] in a level whose own
/// minimum is c (it is attained, so the level keeps a point) and drops,
/// without a solver call, a level whose minimum is above c. The
/// per-split pass resumes after the whole-dependence pass's proven
/// prefix, and a level's new split projects only its unpinned distances.
///
/// The independent projections -- the levels' left-hand sides, one step's
/// ranges across levels, a right-hand side's precedes cases, and per
/// level the per-split pass with the new split -- fan out through the
/// caller's OmegaContext::forEachIndependent, so idle helpers can take
/// them; the solver work and the explain log are the same at every job
/// count.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_ANALYSIS_REFINE_H
#define OMEGA_ANALYSIS_REFINE_H

#include "deps/DependenceAnalysis.h"

namespace omega {
namespace analysis {

struct RefineResult {
  bool Refined = false;         ///< the split list was tightened
  bool UsedGeneralTest = false; ///< the Omega test was consulted
  unsigned LoopsFixed = 0;      ///< loops whose distance is now constant
};

/// Attempts to refine \p Dep (a dependence from write \p A to access
/// \p B), rewriting its splits in place on success. \p Dep must be the
/// unrefined answer of the pair solver: its exact ranges are trusted as
/// the exact distance ranges of each level. The work is charged to
/// \p Ctx.
RefineResult refineDependence(const ir::AnalyzedProgram &AP,
                              const ir::Access &A, const ir::Access &B,
                              deps::Dependence &Dep, OmegaContext &Ctx);

} // namespace analysis
} // namespace omega

#endif // OMEGA_ANALYSIS_REFINE_H
