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
/// over the common loop variables, so the solver:
///
///  1. runs the classic quick tests once (ZIV, GCD, single-subscript
///     bounds) -- a sound pre-filter that answers *every* query of a
///     provably independent or trivially dependent pair with no Omega call
///     at all (per-class counters feed the Figure-6-style profile);
///  2. otherwise builds the shared pair problem once and answers each
///     (kind, level) case with a fresh Omega test on a copy of it plus
///     that case's ordering rows.
///
/// A query is answered in three steps -- plan() (quick tests, the list of
/// case levels, the shared pair problem), solveCase() per level and
/// assemble() -- so a caller can spread one pair's cases over several
/// workers: solveCase() only reads the solver and charges its work to the
/// context it is handed. computeDependence() runs the three steps in turn.
///
/// The quick tests are result-identical to
/// DependenceAnalysis::computeDependence by construction
/// (PairSolverDifferentialTest pins this down over the corpus and the
/// random-program generator); OmegaContext::PairQuickTests ablates them.
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
  /// twice. Everything is built lazily: a pair the quick tests dismiss
  /// never constructs an Omega problem.
  PairSolver(const ir::AnalyzedProgram &AP, const ir::Access &A,
             const ir::Access &B,
             OmegaContext &Ctx = OmegaContext::current());

  /// How one query is answered: outright by the quick tests, or by one
  /// Omega test per case level.
  struct QueryPlan {
    const ir::Access *Src = nullptr;
    const ir::Access *Dst = nullptr;
    DepKind Kind = DepKind::Flow;
    unsigned SI = 0, DI = 1; ///< the DepSpace instances of Src and Dst
    bool Decided = false;    ///< the quick tests answered ...
    std::optional<Dependence> Answer; ///< ... with this
    /// Otherwise the case levels, in split order: each carried level
    /// outermost first, then 0 (loop-independent) if Src is textually
    /// first.
    std::vector<unsigned> Levels;
  };

  /// Plans the query of kind \p Kind from \p Src to \p Dst (the two
  /// accesses this solver was built for, in either order). Runs the quick
  /// tests on first use and, when the plan has cases, builds the shared
  /// pair problem, so every solveCase() of the pair only reads the solver.
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
  /// What the one-time quick-test classification concluded about the pair.
  enum class QuickVerdict : uint8_t {
    Unknown,           ///< quick tests cannot decide; run the Omega test
    Independent,       ///< some subscript row is provably unsolvable
    TriviallyDependent ///< subscripts trivially equal over non-empty
                       ///< constant spaces with no common loop: the answer
                       ///< is decided by textual order alone
  };
  enum class QuickClass : uint8_t { None, ZIV, GCD, Bounds };

  void ensureQuickTests();

  DepSpace Space;
  OmegaContext &Ctx;

  std::optional<Problem> Pair; ///< shared pair problem

  bool QuickDone = false;
  QuickVerdict Verdict = QuickVerdict::Unknown;
  QuickClass Class = QuickClass::None;
};

} // namespace deps
} // namespace omega

#endif // OMEGA_DEPS_PAIRSOLVER_H
