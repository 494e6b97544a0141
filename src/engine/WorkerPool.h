//===- engine/WorkerPool.h - Fixed worker pool with Omega contexts -------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed pool of worker threads for the dependence engine. Each worker
/// owns a persistent OmegaContext (stats sink and trace buffer) and installs
/// it as the thread's current context for its whole lifetime, so
/// arbitrarily deep Omega call chains reached from a task default to the
/// right context without explicit plumbing.
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
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace omega {

namespace obs {
class Tracer;
} // namespace obs

namespace engine {

class WorkerPool {
public:
  /// A task body: called with the task index and the claiming worker's
  /// context. Bodies for distinct indices must touch disjoint state.
  using TaskFn = std::function<void(std::size_t, OmegaContext &)>;

  /// Spawns \p Jobs workers (0 means the hardware concurrency). Jobs <= 1
  /// spawns no thread at all: parallelFor then runs inline on the caller,
  /// still under a pool-owned context. A non-null \p Tracer gets one
  /// "worker-N" trace buffer registered per context, so recording is
  /// lock-free (one writer per buffer) and the tracer merges
  /// deterministically afterwards.
  explicit WorkerPool(unsigned Jobs, obs::Tracer *Tracer = nullptr);
  ~WorkerPool();

  WorkerPool(const WorkerPool &) = delete;
  WorkerPool &operator=(const WorkerPool &) = delete;

  /// Effective parallelism: the active worker count (1 for the inline
  /// pool), after any setActiveWorkers clamp.
  unsigned jobs() const { return ActiveWorkers; }

  /// The pool's capability: the worker count it was built with.
  unsigned maxJobs() const { return NumWorkers; }

  /// Limits how many workers participate in subsequent parallelFor calls
  /// (0 restores the full pool; values clamp to [1, maxJobs()]). Threads
  /// are never spawned or joined -- excess workers skip the generation --
  /// so per-request `jobs` can shrink a long-lived pool cheaply. Only
  /// call while no parallelFor is in flight.
  void setActiveWorkers(unsigned Wanted);

  /// Runs Fn(I, Ctx) for every I in [0, NumTasks) and returns when all
  /// calls have finished. Not reentrant; call from one thread at a time.
  void parallelFor(std::size_t NumTasks, const TaskFn &Fn);

  /// The first worker context (the inline-execution context). For
  /// single-threaded bookkeeping between parallelFor calls (e.g. trace
  /// decisions recorded by the coordinating thread); never touch while a
  /// parallelFor is in flight.
  OmegaContext &firstContext() { return *Contexts.front(); }

  /// Sum of every worker's stats, merged in worker-index order. Only
  /// meaningful while no parallelFor is in flight.
  OmegaStats mergedStats() const;

  /// Zeroes every worker's stats (between analyses).
  void resetStats();

  /// Applies \p Fn to every worker context (e.g. to set the solver-tier
  /// toggles before a run). Contexts are single-threaded: only call while
  /// no parallelFor is in flight.
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

private:
  void workerMain(std::stop_token St, unsigned WorkerIdx);

  unsigned NumWorkers = 1;
  unsigned ActiveWorkers = 1;
  std::vector<std::unique_ptr<OmegaContext>> Contexts;
  std::vector<std::jthread> Threads;

  // Work-dispatch protocol: parallelFor publishes {Task, TaskCount,
  // GenWorkers} under the mutex and bumps Generation; workers wake on the
  // bump, the first GenWorkers of them drain the atomic index (the rest
  // skip the generation), and the last participant out signals DoneCV.
  std::mutex M;
  std::condition_variable_any WorkCV;
  std::condition_variable DoneCV;
  std::uint64_t Generation = 0;
  std::size_t TaskCount = 0;
  unsigned GenWorkers = 0;
  const TaskFn *Task = nullptr;
  std::atomic<std::size_t> Next{0};
  std::atomic<unsigned> Active{0};
};

} // namespace engine
} // namespace omega

#endif // OMEGA_ENGINE_WORKERPOOL_H
