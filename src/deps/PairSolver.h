//===- deps/PairSolver.h - Per-pair dependence solving --------------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A PairSolver owns every dependence question about one (unordered) pair
/// of array references. The flow/anti/output x per-carried-level queries
/// the analysis asks about a pair all share the iteration spaces and the
/// subscript-equality system and differ only in a handful of ordering rows
/// over the common loop variables, so the solver builds the shared pair
/// problem once and answers each (kind, level) case with a fresh Omega
/// test on a copy of it plus that case's ordering rows. No classical
/// pre-filter (ZIV, GCD, bounds) runs in front: the Omega test is the
/// dependence test.
///
/// A query is answered in three steps -- plan() (the list of case levels
/// and the shared pair problem), solveCase() per level and assemble() --
/// so a caller can spread one pair's cases over several workers:
/// solveCase() only reads the solver and charges its work to the context
/// it is handed. computeDependence() runs the three steps in turn.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_DEPS_PAIRSOLVER_H
#define OMEGA_DEPS_PAIRSOLVER_H

#include "deps/DepSpace.h"
#include "deps/Dependence.h"
#include "omega/Problem.h"

#include <optional>
#include <vector>

namespace omega {
namespace deps {

class PairSolver {
public:
  /// Creates the solver for the reference pair (\p A, \p B); \p A becomes
  /// instance 0 of the shared DepSpace. Self-pairs pass the same access
  /// twice. The pair problem is built lazily, by the first plan() that has
  /// a case.
  PairSolver(const ir::AnalyzedProgram &AP, const ir::Access &A,
             const ir::Access &B, OmegaContext &Ctx);

  /// How one query is answered: by one Omega test per case level.
  struct QueryPlan {
    const ir::Access *Src = nullptr;
    const ir::Access *Dst = nullptr;
    DepKind Kind = DepKind::Flow;
    unsigned SI = 0, DI = 1; ///< the DepSpace instances of Src and Dst
    /// The case levels, in split order: each carried level outermost
    /// first, then 0 (loop-independent) if Src is textually first.
    std::vector<unsigned> Levels;
  };

  /// Plans the query of kind \p Kind from \p Src to \p Dst (the two
  /// accesses this solver was built for, in either order). When the plan
  /// has cases, builds the shared pair problem, so every solveCase() of the
  /// pair only reads the solver.
  QueryPlan plan(const ir::Access &Src, const ir::Access &Dst, DepKind Kind);

  /// Solves the case of \p Q at \p Level from scratch on a copy of the
  /// shared pair problem, charging the work to \p Ctx; nullopt when the
  /// case has no solution. The distances' ranges are independent
  /// projections and fan out through Ctx.forEachIndependent. Safe to call
  /// concurrently for one solver.
  std::optional<DepSplit> solveCase(const QueryPlan &Q, unsigned Level,
                                    OmegaContext &Ctx) const;

  /// The query's dependence from its plan and the case results (one per
  /// plan level, in plan order).
  static std::optional<Dependence>
  assemble(const QueryPlan &Q, std::vector<std::optional<DepSplit>> Cases);

  /// The dependence of kind \p Kind from \p Src to \p Dst, exactly as
  /// DependenceAnalysis::computeDependence reports it: plan, every case in
  /// turn on this solver's context, assemble.
  std::optional<Dependence> computeDependence(const ir::Access &Src,
                                              const ir::Access &Dst,
                                              DepKind Kind);

private:
  DepSpace Space;
  OmegaContext &Ctx;

  std::optional<Problem> Pair; ///< shared pair problem
};

} // namespace deps
} // namespace omega

#endif // OMEGA_DEPS_PAIRSOLVER_H
