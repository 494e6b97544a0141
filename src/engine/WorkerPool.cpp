//===- engine/WorkerPool.cpp ----------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "engine/WorkerPool.h"

#include "obs/Trace.h"

#include <string>

using namespace omega;
using namespace omega::engine;

WorkerPool::WorkerPool(unsigned Jobs, obs::Tracer *Tracer) {
  if (Jobs == 0) {
    Jobs = std::thread::hardware_concurrency();
    if (Jobs == 0)
      Jobs = 1;
  }
  NumWorkers = Jobs;
  ActiveWorkers = Jobs;
  Contexts.reserve(NumWorkers);
  for (unsigned I = 0; I != NumWorkers; ++I) {
    Contexts.push_back(std::make_unique<OmegaContext>());
    if (Tracer)
      Contexts.back()->Trace = &Tracer->registerBuffer(
          "worker-" + std::to_string(I), &Contexts.back()->Stats);
  }
  if (NumWorkers > 1) {
    Threads.reserve(NumWorkers);
    for (unsigned I = 0; I != NumWorkers; ++I)
      Threads.emplace_back(
          [this, I](std::stop_token St) { workerMain(St, I); });
  }
}

void WorkerPool::setActiveWorkers(unsigned Wanted) {
  if (Wanted == 0 || Wanted > NumWorkers)
    Wanted = NumWorkers;
  ActiveWorkers = Wanted;
}

WorkerPool::~WorkerPool() {
  for (std::jthread &T : Threads)
    T.request_stop(); // wakes the stop-token-aware WorkCV waits
  // ~jthread joins.
}

void WorkerPool::workerMain(std::stop_token St, unsigned WorkerIdx) {
  // The thread's current context for its entire lifetime: deep call chains
  // (refine, kill, coverage) reach it through OmegaContext::current().
  OmegaContextScope Scope(*Contexts[WorkerIdx]);
  std::uint64_t SeenGen = 0;
  while (true) {
    const TaskFn *Fn;
    std::size_t N;
    {
      std::unique_lock<std::mutex> L(M);
      WorkCV.wait(L, St, [&] { return Generation != SeenGen; });
      if (St.stop_requested())
        return;
      SeenGen = Generation;
      // Per-request jobs clamp: workers beyond the generation's count sit
      // it out entirely -- they neither claim indices nor join the Active
      // countdown, so the participants' final decrement still reaches 0.
      if (WorkerIdx >= GenWorkers)
        continue;
      Fn = Task;
      N = TaskCount;
    }
    for (std::size_t I = Next.fetch_add(1, std::memory_order_relaxed); I < N;
         I = Next.fetch_add(1, std::memory_order_relaxed))
      (*Fn)(I, *Contexts[WorkerIdx]);
    if (Active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> G(M);
      DoneCV.notify_one();
    }
  }
}

void WorkerPool::parallelFor(std::size_t NumTasks, const TaskFn &Fn) {
  if (NumTasks == 0)
    return;
  if (Threads.empty() || ActiveWorkers <= 1) {
    // Inline pool, or a request clamped to one job: same context
    // discipline as a worker thread. Safe while threads exist -- idle
    // workers wait on WorkCV and never touch Contexts[0], and
    // parallelFor is not reentrant.
    OmegaContextScope Scope(*Contexts[0]);
    for (std::size_t I = 0; I != NumTasks; ++I)
      Fn(I, *Contexts[0]);
    return;
  }
  unsigned Act = ActiveWorkers;
  {
    std::lock_guard<std::mutex> G(M);
    Task = &Fn;
    TaskCount = NumTasks;
    GenWorkers = Act;
    Next.store(0, std::memory_order_relaxed);
    Active.store(Act, std::memory_order_relaxed);
    ++Generation;
  }
  WorkCV.notify_all();
  std::unique_lock<std::mutex> L(M);
  // The acquire load pairs with each worker's acq_rel decrement, so every
  // task's writes happen-before the merge that follows this return.
  DoneCV.wait(L, [&] { return Active.load(std::memory_order_acquire) == 0; });
  Task = nullptr;
}

void WorkerPool::setTracer(obs::Tracer *Tracer) {
  for (unsigned I = 0; I != NumWorkers; ++I)
    Contexts[I]->Trace = Tracer
                             ? &Tracer->registerBuffer(
                                   "worker-" + std::to_string(I),
                                   &Contexts[I]->Stats)
                             : nullptr;
}

OmegaStats WorkerPool::mergedStats() const {
  OmegaStats S;
  for (const std::unique_ptr<OmegaContext> &Ctx : Contexts)
    S.merge(Ctx->Stats);
  return S;
}

void WorkerPool::resetStats() {
  for (std::unique_ptr<OmegaContext> &Ctx : Contexts)
    Ctx->Stats = OmegaStats();
}
