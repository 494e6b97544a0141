//===- engine/WorkerPool.h - Worker contexts over shared helper threads --===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dependence engine's parallel loop. A pool owns one OmegaContext
/// (stats sink and trace buffer) per worker slot but no threads: every
/// pool in the process borrows from one shared set of helper threads,
/// (usable cores - 1) of them, started by the first parallelFor that can
/// use one. The calling thread joins its own loop as slot 0, and each
/// borrowed helper runs under the borrowing pool's context for its slot.
/// A task is handed its context and passes it down to every Omega call it
/// makes; nothing finds a context any other way.
///
/// A parallelFor borrows only helpers that are idle at that moment and
/// never waits for a busy one: two engines analyzing at once split the
/// helpers between them, and a loop that finds none runs on its caller.
/// Fresh engines therefore cost no thread start-up, and the helpers never
/// outnumber the cores.
///
/// A task may fan out too, through OmegaContext::forEachIndependent on the
/// context it was handed, which is how analysis/ and deps/ reach the pool
/// (a parallelFor from inside a task is an error). A fan-out borrows only
/// helpers idle at that moment, and only while the pool runs fewer than
/// jobs() threads, so a pool at one job (omega-serve's engines, --jobs 1)
/// runs every fan-out inline and never touches a helper. When it does
/// borrow, each sub-task runs under a context of its own; afterwards the
/// caller's context takes, in index order, every sub-task's counters,
/// trace records (spliced into the calling task) and overflow flag. So the
/// counters, the explain log and every result are what an inline run
/// gives, at every job count and however many helpers were idle.
///
/// Scheduling is dynamic (workers claim task indices from an atomic
/// counter) but the engine stays deterministic because tasks write into
/// pre-sized, index-addressed result slots that the caller merges in task
/// order -- which worker ran which task never shows in the output.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_ENGINE_WORKERPOOL_H
#define OMEGA_ENGINE_WORKERPOOL_H

#include "omega/OmegaContext.h"

#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

namespace omega {

namespace obs {
class Tracer;
} // namespace obs

namespace engine {

/// The cores this process may run on: its CPU affinity mask, or the
/// hardware concurrency where the mask cannot be read. At least 1.
unsigned usableCores();

/// The one place a requested job count becomes a worker count. 0 means
/// "the usable cores", shared evenly among \p Sharers engines that run
/// side by side (at least 1 each); any value is capped at usableCores(),
/// so no pool ever holds more slots than can run at once.
unsigned resolveJobs(unsigned Requested, unsigned Sharers = 1);

class WorkerPool : private SubTaskRunner {
public:
  /// A task body: called with the task index and the claiming worker's
  /// context. Bodies for distinct indices must touch disjoint state.
  using TaskFn = omega::TaskFn;

  /// Builds resolveJobs(\p Jobs) worker contexts. A non-null \p Tracer
  /// gets one "worker-N" trace buffer registered per context, so
  /// recording is lock-free (one writer per buffer) and the tracer merges
  /// deterministically afterwards.
  explicit WorkerPool(unsigned Jobs, obs::Tracer *Tracer = nullptr);

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  /// Effective parallelism: the active worker count, after any
  /// setActiveWorkers clamp.
  unsigned jobs() const { return ActiveWorkers; }

  /// The pool's capability: the number of worker contexts.
  unsigned maxJobs() const { return static_cast<unsigned>(Contexts.size()); }

  /// Limits how many workers participate in subsequent parallelFor calls
  /// (0 restores the full pool; values clamp to [1, maxJobs()]). Only
  /// call while no parallelFor is in flight.
  void setActiveWorkers(unsigned Wanted);

  /// Runs Fn(I, Ctx) for every I in [0, NumTasks) and returns when all
  /// calls have finished. The caller runs tasks under the first context;
  /// up to min(jobs(), NumTasks) - 1 idle helpers run the rest under the
  /// following ones. A single task, or a pool at one job, runs inline and
  /// never touches the helpers. Call from one thread at a time and never
  /// from inside one of this pool's tasks: a task fans out through its
  /// context's forEachIndependent (see the file comment).
  void parallelFor(std::size_t NumTasks, const TaskFn &Fn);

  /// The first worker context (the caller's). For single-threaded
  /// bookkeeping between parallelFor calls (e.g. trace decisions recorded
  /// by the coordinating thread); never touch while a parallelFor is in
  /// flight.
  OmegaContext &firstContext() { return *Contexts.front(); }

  /// Sum of every worker's stats, merged in worker-index order. Only
  /// meaningful while no parallelFor is in flight.
  OmegaStats mergedStats() const;

  /// Zeroes every worker's stats (between analyses).
  void resetStats();

  /// Applies \p Fn to every worker context. Contexts are single-threaded:
  /// only call while no parallelFor is in flight.
  void forEachContext(const std::function<void(OmegaContext &)> &Fn) {
    for (const std::unique_ptr<OmegaContext> &C : Contexts)
      Fn(*C);
  }

  /// Points every worker context at \p Tracer (null detaches), registering
  /// one "worker-N" buffer per context exactly like the constructor does.
  /// Lets a long-lived pool trace selected runs only -- omega-serve's
  /// slow-request capture attaches a tracer for one request and detaches
  /// it after. Only call while no parallelFor is in flight.
  void setTracer(obs::Tracer *Tracer);

  /// Helper threads started so far in this process: 0 until the first
  /// parallelFor that borrows one, then usableCores() - 1 for good.
  static unsigned helperThreads();

private:
  /// A fan-out of the task running under \p Caller.
  void runSubTasks(OmegaContext &Caller, std::size_t N,
                   const TaskFn &Fn) override;

  /// Counts up to \p Want more helpers as lent to this pool, within
  /// jobs() - 1 at once, and returns how many it counted.
  std::size_t reserveHelpers(std::size_t Want);

  unsigned ActiveWorkers = 1;
  bool InFlight = false; ///< a parallelFor is running (re-entry check)
  std::vector<std::unique_ptr<OmegaContext>> Contexts;
  std::atomic<unsigned> LentHelpers{0}; ///< helpers at work for this pool
};

} // namespace engine
} // namespace omega

#endif // OMEGA_ENGINE_WORKERPOOL_H
