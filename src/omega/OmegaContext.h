//===- omega/OmegaContext.h - Execution context for the Omega core -------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An OmegaContext carries the per-computation state of the Omega core:
/// the statistics counters, an optional trace buffer and where its
/// sub-tasks run. It holds no solver answers and no toggles: every query
/// runs the Omega test from scratch. Every decision-procedure entry point
/// (isSatisfiable, projectOnto*, gist, ...) takes the context its work is
/// charged to, and so does every analysis that calls them: a context is
/// always passed, never found, so concurrent analyses give each worker
/// its own context and stats never bleed between threads.
///
/// A context also says where the task running under it may fan out
/// independent sub-tasks (forEachIndependent): the engine's worker pool
/// sets SubTasks on its contexts, so a heavy task in analysis/ or deps/
/// lends its projections to idle helpers without naming the engine.
/// Without a runner, sub-tasks run inline, in index order.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_OMEGA_OMEGACONTEXT_H
#define OMEGA_OMEGA_OMEGACONTEXT_H

#include "omega/OmegaStats.h"

#include <cstddef>
#include <functional>

namespace omega {

namespace obs {
class TraceBuffer;
} // namespace obs

class OmegaContext;

/// A task or sub-task body: called with its index and the context it runs
/// under. Bodies for distinct indices must touch disjoint state.
using TaskFn = std::function<void(std::size_t, OmegaContext &)>;

/// Runs the independent sub-tasks of a task. Whoever runs them, the
/// caller's context must end up as if it had run Fn(0), ..., Fn(N-1)
/// itself, in that order: the same counters, the same trace records and
/// the same overflow flag.
class SubTaskRunner {
public:
  virtual void runSubTasks(OmegaContext &Caller, std::size_t N,
                           const TaskFn &Fn) = 0;

protected:
  ~SubTaskRunner() = default;
};

class OmegaContext {
public:
  /// Counters for this context's computations. Not synchronized: a context
  /// must only be used from one thread at a time.
  OmegaStats Stats;

  /// Optional trace buffer recording spans for this context's queries
  /// (see obs/Trace.h). Null disables tracing: instrumented sites guard
  /// every record with an inlined null check, so the disabled path costs
  /// one branch and never allocates. Single-writer like Stats. Not owned.
  obs::TraceBuffer *Trace = nullptr;

  /// Where forEachIndependent sends sub-tasks; null runs them inline.
  /// Not owned.
  SubTaskRunner *SubTasks = nullptr;

  /// Runs Fn(I, Ctx) for every I in [0, N), possibly on other threads
  /// under other contexts, and returns when all have finished. Counters,
  /// trace records and overflow land in this context exactly as if the
  /// calls had run inline in index order, so a caller's results, stats
  /// and explain log do not depend on how many helpers were idle.
  void forEachIndependent(std::size_t N, const TaskFn &Fn);
};

} // namespace omega

#endif // OMEGA_OMEGA_OMEGACONTEXT_H
