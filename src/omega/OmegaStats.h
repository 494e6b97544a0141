//===- omega/OmegaStats.h - Counters for the evaluation harness ----------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lightweight counters recording how hard the Omega test had to work. The
/// benchmark harness uses them to classify analysis costs the way Figure 6
/// of the paper does (no-Omega-needed vs. general test vs. split).
///
/// Counters live inside an OmegaContext (see omega/OmegaContext.h); every
/// decision-procedure entry point takes a context and bumps that context's
/// counters, so concurrent analyses with separate contexts never share
/// state.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_OMEGA_OMEGASTATS_H
#define OMEGA_OMEGA_OMEGASTATS_H

#include <cstdint>

namespace omega {

struct OmegaStats {
  uint64_t SatisfiabilityCalls = 0;
  uint64_t ProjectionCalls = 0;     // projectOntoMask entries
  uint64_t GistCalls = 0;           // gist() entries
  uint64_t ExactEliminations = 0;
  uint64_t InexactEliminations = 0;
  uint64_t SplintersExplored = 0;
  uint64_t DarkShadowDecided = 0;   // dark shadow satisfiable => sat
  uint64_t RealShadowDecided = 0;   // real shadow unsatisfiable => unsat
  uint64_t ModHatSubstitutions = 0;
  uint64_t GistSatTests = 0;        // satisfiability tests in gist loop

  // Result store (engine/ResultStore.h), the one cross-run reuse path:
  // pair and kill groups this run materialized from the store (hits),
  // looked up but had to solve (misses), and entries the store's LRU
  // bound dropped while this run inserted (evictions). Hits plus misses
  // equal the run's pair and kill groups; all zero when no store is
  // attached.
  uint64_t ResultStoreHits = 0;
  uint64_t ResultStoreMisses = 0;
  uint64_t ResultStoreEvictions = 0;

  void reset() { *this = OmegaStats(); }

  /// Accumulates another context's counters (used to fold per-worker stats
  /// into a whole-run total).
  void merge(const OmegaStats &O) { apply(O, /*Sign=*/+1); }

  /// Subtracts a snapshot taken earlier on the same context; the tracer
  /// uses this to attribute counter movement to individual spans.
  void subtract(const OmegaStats &O) { apply(O, /*Sign=*/-1); }

private:
  void apply(const OmegaStats &O, int64_t Sign) {
    SatisfiabilityCalls += Sign * O.SatisfiabilityCalls;
    ProjectionCalls += Sign * O.ProjectionCalls;
    GistCalls += Sign * O.GistCalls;
    ExactEliminations += Sign * O.ExactEliminations;
    InexactEliminations += Sign * O.InexactEliminations;
    SplintersExplored += Sign * O.SplintersExplored;
    DarkShadowDecided += Sign * O.DarkShadowDecided;
    RealShadowDecided += Sign * O.RealShadowDecided;
    ModHatSubstitutions += Sign * O.ModHatSubstitutions;
    GistSatTests += Sign * O.GistSatTests;
    ResultStoreHits += Sign * O.ResultStoreHits;
    ResultStoreMisses += Sign * O.ResultStoreMisses;
    ResultStoreEvictions += Sign * O.ResultStoreEvictions;
  }
};

} // namespace omega

#endif // OMEGA_OMEGA_OMEGASTATS_H
