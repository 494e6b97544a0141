//===- engine/DependenceEngine.h - Parallel analysis facade --------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The DependenceEngine is the public entry point for whole-program
/// dependence analysis. It runs the paper's Section 4 pipeline --
/// pairwise dependences, refinement, coverage, kill analysis -- sharded
/// across the engine's worker slots: the calling thread plus helper
/// threads borrowed from one process-wide set.
///
/// Determinism guarantee: for a given program and AnalysisRequest flags,
/// the structural content of the AnalysisResult (dependences, splits,
/// pair/kill record fields other than timings) is identical for every
/// Jobs value and reuse state. Work is enumerated in the serial pipeline's
/// order into index-addressed slots and merged in index order; the result
/// store only ever returns outcomes the solver would have computed. Timings, and stats counters when reuse elides work, are the
/// only run-to-run variation.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_ENGINE_DEPENDENCEENGINE_H
#define OMEGA_ENGINE_DEPENDENCEENGINE_H

#include "analysis/Driver.h"
#include "omega/OmegaStats.h"

#include <cstdint>
#include <memory>

namespace omega {

namespace obs {
class Tracer;
} // namespace obs

namespace engine {

class ResultStore;
class WorkerPool;

/// What analyzeProgram-style runs should do and how to execute them.
struct AnalysisRequest {
  bool QuickTests = true; ///< Section 4.5 screens
  bool Refine = true;     ///< Section 4.4 distance refinement
  bool Cover = true;      ///< Section 4.2 coverage
  bool Kill = true;       ///< Section 4.1/4.2 kill analysis
  /// Section 4.3 terminating analysis (an extension the paper describes
  /// but its implementation did not enable).
  bool Terminate = false;
  /// Worker slots, the caller included (see engine/WorkerPool.h): 1 runs
  /// inline on the caller, 0 means the usable cores, and larger values
  /// are capped at the usable cores.
  unsigned Jobs = 1;
  /// ZIV/GCD/bounds pre-filter: decide provably independent or trivially
  /// dependent pairs with no Omega call (ablation: --no-quicktests).
  bool PairQuickTests = true;
  /// Optional tracer: each worker context gets a registered trace buffer
  /// and every work item is recorded as an engine-task span keyed by its
  /// serial enumeration order, so merged traces are identical for every
  /// Jobs value. Null disables tracing (the zero-overhead path). Not
  /// owned; must outlive the engine.
  obs::Tracer *Trace = nullptr;
  /// The cross-run result store (engine/ResultStore.h): consulted for
  /// every pair group and kill group, and fed every outcome this run
  /// solves. Result-identical by construction (sig-qualified exact
  /// fingerprint match, shape re-validation, byte-identical
  /// materialization). Not owned; must be thread-safe (it is) and outlive
  /// the analyze() call. Ignored when Terminate is set: phase 4 mutates
  /// across group boundaries, outside the per-group reuse model.
  ResultStore *Store = nullptr;

  static AnalysisRequest fromDriverOptions(const analysis::DriverOptions &O) {
    AnalysisRequest R;
    R.QuickTests = O.QuickTests;
    R.Refine = O.Refine;
    R.Cover = O.Cover;
    R.Kill = O.Kill;
    R.Terminate = O.Terminate;
    return R;
  }
};

/// The legacy result plus per-run execution metrics.
struct AnalysisResult : analysis::AnalysisResult {
  /// Omega work done by this run, merged over the worker contexts, plus
  /// the result store's hit/miss/eviction accounting.
  OmegaStats Stats;
};

class DependenceEngine {
public:
  explicit DependenceEngine(const AnalysisRequest &Req = AnalysisRequest());
  ~DependenceEngine();

  DependenceEngine(const DependenceEngine &) = delete;
  DependenceEngine &operator=(const DependenceEngine &) = delete;

  /// Runs the full pipeline over \p AP. May be called repeatedly.
  AnalysisResult analyze(const ir::AnalyzedProgram &AP);

  /// Re-points the pipeline and tier toggles (QuickTests, Refine, Cover,
  /// Kill, Terminate, PairQuickTests), the result store, and the active
  /// worker count (Jobs, clamped to the pool built at construction) at
  /// \p O's values without rebuilding the pool. The serving stack uses
  /// this to honor per-request options on a long-lived engine; Trace is
  /// fixed at construction and ignored here.
  void applyOptions(const AnalysisRequest &O);

  /// Attaches \p T (null detaches) for subsequent analyze() calls:
  /// re-points the request's Trace and registers per-worker buffers on
  /// the long-lived pool. This is the one exception to "Trace is fixed at
  /// construction" -- omega-serve's slow-request capture traces a single
  /// request on an otherwise trace-disabled engine. Each engine is owned
  /// by exactly one server worker, so attach/analyze/detach never races.
  /// Must not be called while analyze() is in flight.
  void setTracer(obs::Tracer *T);

  /// Effective worker count: Jobs resolved against the usable cores and
  /// clamped to the pool's capability.
  unsigned jobs() const;

  /// The pool's capability: the most workers a request can ask for.
  unsigned maxJobs() const;

  const AnalysisRequest &request() const { return Req; }

private:
  AnalysisRequest Req;
  std::unique_ptr<WorkerPool> Pool;
};

} // namespace engine
} // namespace omega

#endif // OMEGA_ENGINE_DEPENDENCEENGINE_H
