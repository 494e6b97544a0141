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
///     (kind, level) query with a fresh Omega test on a copy of it plus
///     that query's ordering rows.
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

  /// The dependence of kind \p Kind from \p Src to \p Dst, exactly as
  /// DependenceAnalysis::computeDependence reports it. \p Src and \p Dst
  /// must be the two accesses this solver was built for (in either order).
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
  const Problem &pairProblem();

  std::optional<Dependence> solveOrdered(unsigned SI, unsigned DI,
                                         const ir::Access &Src,
                                         const ir::Access &Dst, DepKind Kind);

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
