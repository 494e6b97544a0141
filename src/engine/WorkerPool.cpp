//===- engine/WorkerPool.cpp ----------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "engine/WorkerPool.h"

#include "obs/Trace.h"
#include "support/MathUtils.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

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

/// One sub-task of a fanned-out task. It runs under a context of its own
/// (whichever thread runs it), so its counters, trace records and
/// overflow flag can be handed to the caller in index order afterwards.
struct SubTask {
  SubTask() = default;
  SubTask(const SubTask &) = delete; // helpers hold its address
  SubTask &operator=(const SubTask &) = delete;

  OmegaContext Ctx;
  std::unique_ptr<obs::TraceBuffer> Trace;
  bool Overflowed = false;
};

/// One parallelFor's shared state. It lives on the caller's stack, so the
/// caller returns only after every helper that took it has let go.
struct Batch {
  Batch(std::atomic<unsigned> &Lent, const WorkerPool::TaskFn &Fn,
        std::size_t N, SubTask *Subs = nullptr)
      : Lent(Lent), Fn(Fn), N(N), Subs(Subs) {}

  std::atomic<unsigned> &Lent; ///< the pool's helpers at work right now
  const WorkerPool::TaskFn &Fn;
  const std::size_t N;
  SubTask *const Subs; ///< per-index contexts of a fan-out, else null
  std::atomic<std::size_t> Next{0};
  std::mutex M;
  std::condition_variable Done;
  unsigned Finished = 0; ///< helpers through with this batch (under M)

  /// Claims and runs tasks until none are left: under \p Ctx, or under
  /// each sub-task's own context in a fan-out. A task that throws ends the
  /// process, on the caller as on a helper: the batch must outlive every
  /// helper that holds it.
  void drain(OmegaContext *Ctx) noexcept {
    if (!Subs) {
      for (std::size_t I = claim(); I < N; I = claim())
        Fn(I, *Ctx);
      return;
    }
    for (std::size_t I = claim(); I < N; I = claim()) {
      SubTask &T = Subs[I];
      bool Saved = std::exchange(arithOverflowFlag(), false);
      Fn(I, T.Ctx);
      T.Overflowed = std::exchange(arithOverflowFlag(), Saved);
    }
  }

  std::size_t claim() { return Next.fetch_add(1, std::memory_order_relaxed); }

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
  OmegaContext *Ctx = nullptr; ///< the lender's context (top-level batch)
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

  /// Lends \p B to up to \p Want idle helpers, the I-th under Ctxs[I]
  /// (none for a fan-out, whose sub-tasks bring their own), and wakes
  /// them; \p Lent lists them.
  void lend(Batch &B, const std::unique_ptr<OmegaContext> *Ctxs,
            std::size_t Want, std::vector<Helper *> &Lent) {
    {
      std::lock_guard<std::mutex> G(M);
      if (All.empty())
        start();
      while (Lent.size() != Want && !Idle.empty()) {
        Helper *H = Idle.back();
        Idle.pop_back();
        H->Ctx = Ctxs ? Ctxs[Lent.size()].get() : nullptr;
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
      if (B != withdrawn()) {
        B->drain(H.Ctx);
        --B->Lent;
      }
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
  for (unsigned I = 0; I != N; ++I) {
    Contexts.push_back(std::make_unique<OmegaContext>());
    Contexts.back()->SubTasks = this;
  }
  ActiveWorkers = N;
  if (Tracer)
    setTracer(Tracer);
}

void WorkerPool::setActiveWorkers(unsigned Wanted) {
  if (Wanted == 0 || Wanted > maxJobs())
    Wanted = maxJobs();
  ActiveWorkers = Wanted;
}

std::size_t WorkerPool::reserveHelpers(std::size_t Want) {
  unsigned Cap = ActiveWorkers - 1;
  unsigned Cur = LentHelpers.load();
  unsigned Take;
  do {
    if (Cur >= Cap || Want == 0)
      return 0;
    Take = static_cast<unsigned>(std::min<std::size_t>(Want, Cap - Cur));
  } while (!LentHelpers.compare_exchange_weak(Cur, Cur + Take));
  return Take;
}

namespace {

/// Drains \p B on the calling thread under \p Ctx, with up to
/// \p Reserved helpers (already counted in the pool's lent helpers) under
/// \p HelperCtxs, and returns once every helper that took it is through.
void runBatch(Batch &B, std::size_t Reserved,
              const std::unique_ptr<OmegaContext> *HelperCtxs,
              OmegaContext *Ctx) {
  std::vector<Helper *> Lent;
  if (Reserved) {
    Lent.reserve(Reserved);
    Helpers::get().lend(B, HelperCtxs, Reserved, Lent);
    B.Lent -= static_cast<unsigned>(Reserved - Lent.size());
  }
  B.drain(Ctx);
  if (Lent.empty())
    return;
  unsigned Holding = Helpers::withdraw(B, Lent);
  B.Lent -= static_cast<unsigned>(Lent.size() - Holding);
  // The acquire of M pairs with each helper's finish(), so every task's
  // writes happen-before the merge that follows this return.
  std::unique_lock<std::mutex> L(B.M);
  B.Done.wait(L, [&] { return B.Finished == Holding; });
}

} // namespace

void WorkerPool::parallelFor(std::size_t NumTasks, const TaskFn &Fn) {
  assert(!InFlight && "a task fans out through Ctx.forEachIndependent, "
                      "not through parallelFor");
  InFlight = true;
  Batch B(LentHelpers, Fn, NumTasks);
  std::size_t Workers = std::min<std::size_t>(ActiveWorkers, NumTasks);
  runBatch(B, Workers > 1 ? reserveHelpers(Workers - 1) : 0,
           Contexts.data() + 1, Contexts[0].get());
  InFlight = false;
}

void WorkerPool::runSubTasks(OmegaContext &Caller, std::size_t N,
                             const TaskFn &Fn) {
  std::size_t Reserved = N > 1 ? reserveHelpers(N - 1) : 0;
  if (Reserved == 0) {
    // The pool already has jobs() threads at work: the caller runs every
    // sub-task itself, in order, under its own context.
    for (std::size_t I = 0; I != N; ++I)
      Fn(I, Caller);
    return;
  }
  std::vector<SubTask> Subs(N);
  for (SubTask &T : Subs) {
    T.Ctx.SubTasks = Caller.SubTasks;
    if (Caller.Trace) {
      T.Trace = Caller.Trace->fork(&T.Ctx.Stats);
      T.Ctx.Trace = T.Trace.get();
    }
  }
  Batch B(LentHelpers, Fn, N, Subs.data());
  runBatch(B, Reserved, nullptr, nullptr);
  // Hand everything back in index order, as an inline run records it.
  for (SubTask &T : Subs) {
    Caller.Stats.merge(T.Ctx.Stats);
    if (T.Trace)
      Caller.Trace->splice(*T.Trace);
    if (T.Overflowed)
      arithOverflowFlag() = true;
  }
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
