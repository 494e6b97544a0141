//===- engine/WorkerPool.cpp ----------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "engine/WorkerPool.h"

#include "obs/Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

using namespace omega;
using namespace omega::engine;

unsigned omega::engine::usableCores() {
  static const unsigned Cores = [] {
#ifdef __linux__
    cpu_set_t Set;
    if (sched_getaffinity(0, sizeof(Set), &Set) == 0 && CPU_COUNT(&Set) > 0)
      return static_cast<unsigned>(CPU_COUNT(&Set));
#endif
    return std::max(1u, std::thread::hardware_concurrency());
  }();
  return Cores;
}

unsigned omega::engine::resolveJobs(unsigned Requested, unsigned Sharers) {
  unsigned Cores = usableCores();
  if (Requested == 0)
    return std::max(1u, Cores / std::max(1u, Sharers));
  return std::min(Requested, Cores);
}

namespace {

/// One parallelFor's shared state. It lives on the caller's stack, so the
/// caller returns only after every helper that took it has let go.
struct Batch {
  Batch(const WorkerPool::TaskFn &Fn, std::size_t N) : Fn(Fn), N(N) {}

  const WorkerPool::TaskFn &Fn;
  const std::size_t N;
  std::atomic<std::size_t> Next{0};
  std::mutex M;
  std::condition_variable Done;
  unsigned Finished = 0; ///< helpers through with this batch (under M)

  /// Claims and runs tasks under \p Ctx until none are left. A task that
  /// throws ends the process, on the caller as on a helper: the batch must
  /// outlive every helper that holds it.
  void drain(OmegaContext &Ctx) noexcept {
    OmegaContextScope Scope(Ctx);
    for (std::size_t I = Next.fetch_add(1, std::memory_order_relaxed); I < N;
         I = Next.fetch_add(1, std::memory_order_relaxed))
      Fn(I, Ctx);
  }

  /// A helper's last touch. The notify happens under M, so the caller's
  /// wait cannot return (and free the batch) before the unlock.
  void finish() {
    std::lock_guard<std::mutex> G(M);
    ++Finished;
    Done.notify_one();
  }
};

/// One helper thread. Offer is null while the helper is idle or working;
/// a lender stores its batch there, and takes it back by swapping in
/// withdrawn() if the helper has not picked it up yet.
struct Helper {
  std::atomic<Batch *> Offer{nullptr};
  OmegaContext *Ctx = nullptr; ///< the lender's context for this batch
  std::thread Thread;
};

/// Offer values that are not batches. Never dereferenced.
Batch *withdrawn() {
  static char Tag;
  return reinterpret_cast<Batch *>(&Tag);
}
Batch *stopping() {
  static char Tag;
  return reinterpret_cast<Batch *>(&Tag);
}

/// How long a helper that finished a batch keeps polling for the next one
/// before it sleeps. An analysis runs its parallel phases back to back, so
/// a short poll saves both the lender's wake-up call and the helper's
/// wake-up latency on every phase after the first.
constexpr std::chrono::microseconds PollFor(50);

/// The process-wide helper threads, usableCores() - 1 of them, started on
/// the first lend. A helper is either idle (in Idle) or lent to exactly
/// one batch; it returns itself to Idle when done.
class Helpers {
public:
  static Helpers &get() {
    static Helpers H;
    return H;
  }

  ~Helpers() {
    for (const std::unique_ptr<Helper> &H : All) {
      H->Offer.store(stopping(), std::memory_order_release);
      H->Offer.notify_one();
    }
    for (const std::unique_ptr<Helper> &H : All)
      H->Thread.join();
  }

  unsigned started() {
    std::lock_guard<std::mutex> G(M);
    return static_cast<unsigned>(All.size());
  }

  /// Lends \p B to up to \p Want idle helpers, the I-th under Ctxs[I], and
  /// wakes them; \p Lent lists them.
  void lend(Batch &B, const std::unique_ptr<OmegaContext> *Ctxs,
            std::size_t Want, std::vector<Helper *> &Lent) {
    {
      std::lock_guard<std::mutex> G(M);
      if (All.empty())
        start();
      while (Lent.size() != Want && !Idle.empty()) {
        Helper *H = Idle.back();
        Idle.pop_back();
        H->Ctx = Ctxs[Lent.size()].get();
        Lent.push_back(H);
      }
    }
    for (Helper *H : Lent) {
      H->Offer.store(&B, std::memory_order_release);
      H->Offer.notify_one();
    }
  }

  /// Takes \p B back from every lent helper that has not picked it up yet
  /// and returns how many helpers still hold it. A helper whose offer is
  /// withdrawn goes back to Idle when it next looks, so the caller never
  /// waits on a thread that has not started.
  static unsigned withdraw(Batch &B, const std::vector<Helper *> &Lent) {
    unsigned Holding = 0;
    for (Helper *H : Lent) {
      Batch *Expected = &B;
      if (!H->Offer.compare_exchange_strong(Expected, withdrawn(),
                                            std::memory_order_acq_rel))
        ++Holding;
    }
    return Holding;
  }

private:
  Helpers() = default;

  /// Spawns the helpers, all idle. Called once, under M.
  void start() {
    unsigned N = usableCores() - 1;
    for (unsigned I = 0; I != N; ++I) {
      All.push_back(std::make_unique<Helper>());
      Helper *H = All.back().get();
      H->Thread = std::thread([this, H] { loop(*H); });
      Idle.push_back(H);
    }
  }

  /// Waits for the next offer and takes it.
  static Batch *take(Helper &H) {
    auto Until = std::chrono::steady_clock::now() + PollFor;
    while (!H.Offer.load(std::memory_order_relaxed) &&
           std::chrono::steady_clock::now() < Until)
      std::this_thread::yield();
    H.Offer.wait(nullptr, std::memory_order_relaxed);
    return H.Offer.exchange(nullptr, std::memory_order_acq_rel);
  }

  void loop(Helper &H) {
    while (true) {
      Batch *B = take(H);
      if (B == stopping())
        return;
      if (B != withdrawn())
        B->drain(*H.Ctx);
      {
        std::lock_guard<std::mutex> G(M);
        Idle.push_back(&H);
      }
      if (B != withdrawn())
        B->finish();
    }
  }

  std::mutex M;
  std::vector<std::unique_ptr<Helper>> All; ///< started helpers (under M)
  std::vector<Helper *> Idle;               ///< available to lend (under M)
};

} // namespace

WorkerPool::WorkerPool(unsigned Jobs, obs::Tracer *Tracer) {
  unsigned N = resolveJobs(Jobs);
  Contexts.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Contexts.push_back(std::make_unique<OmegaContext>());
  ActiveWorkers = N;
  if (Tracer)
    setTracer(Tracer);
}

void WorkerPool::setActiveWorkers(unsigned Wanted) {
  if (Wanted == 0 || Wanted > maxJobs())
    Wanted = maxJobs();
  ActiveWorkers = Wanted;
}

void WorkerPool::parallelFor(std::size_t NumTasks, const TaskFn &Fn) {
  std::size_t Workers = std::min<std::size_t>(ActiveWorkers, NumTasks);
  Batch B(Fn, NumTasks);
  if (Workers <= 1) {
    B.drain(*Contexts[0]);
    return;
  }
  std::vector<Helper *> Lent;
  Lent.reserve(Workers - 1);
  Helpers::get().lend(B, Contexts.data() + 1, Workers - 1, Lent);
  B.drain(*Contexts[0]);
  unsigned Holding = Helpers::withdraw(B, Lent);
  // The acquire of M pairs with each helper's finish(), so every task's
  // writes happen-before the merge that follows this return.
  std::unique_lock<std::mutex> L(B.M);
  B.Done.wait(L, [&] { return B.Finished == Holding; });
}

unsigned WorkerPool::helperThreads() { return Helpers::get().started(); }

void WorkerPool::setTracer(obs::Tracer *Tracer) {
  for (std::size_t I = 0; I != Contexts.size(); ++I)
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
