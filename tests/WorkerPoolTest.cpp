//===- tests/WorkerPoolTest.cpp - Shared helper threads -------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//
//
// The worker pool borrows from one process-wide set of helper threads and
// the caller joins its own loop. These tests pin when helpers start, who
// runs tasks under which context, that concurrent engines neither
// deadlock nor oversubscribe the cores, and that jobs never builds more
// slots than can run. PipelineDifferential.ResponseBlockIdenticalAcrossJobs
// checks that the default jobs render the serial result byte for byte.
// The fan-out tests pin a task's own parallel loop: inline at one job and
// when every helper is busy, its counters, trace records and overflow
// flag handed to the caller, and never more than jobs() threads at work.
//
// The first test must see a process with no helpers yet, so it stays
// first in this file (ctest runs every test in a process of its own).
//
//===----------------------------------------------------------------------===//

#include "api/Response.h"
#include "engine/DependenceEngine.h"
#include "engine/WorkerPool.h"
#include "ir/Sema.h"
#include "kernels/Kernels.h"
#include "obs/Trace.h"
#include "support/MathUtils.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace omega;
using engine::WorkerPool;

namespace {

/// Which thread ran a task, under which context.
struct TaskRun {
  std::thread::id Thread;
  OmegaContext *Ctx = nullptr;
};

/// Runs \p N short tasks on \p Pool and records who ran each.
std::vector<TaskRun> recordRuns(WorkerPool &Pool, std::size_t N) {
  std::vector<TaskRun> Runs(N);
  Pool.parallelFor(N, [&](std::size_t I, OmegaContext &Ctx) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    Runs[I] = {std::this_thread::get_id(), &Ctx};
  });
  return Runs;
}

std::set<std::thread::id> threadsOf(const std::vector<TaskRun> &Runs) {
  std::set<std::thread::id> Out;
  for (const TaskRun &R : Runs)
    Out.insert(R.Thread);
  return Out;
}

/// Counts the threads inside a region and remembers the most at once.
struct Occupancy {
  std::atomic<unsigned> Now{0}, Max{0};

  void enter() {
    unsigned N = Now.fetch_add(1) + 1;
    unsigned M = Max.load();
    while (N > M && !Max.compare_exchange_weak(M, N))
      ;
  }
  void leave() { Now.fetch_sub(1); }
};

/// Holds every arriving thread until \p Parties have arrived. Returns
/// false if that took longer than ten seconds.
class Rendezvous {
public:
  explicit Rendezvous(unsigned Parties) : Parties(Parties) {}

  bool arrive() {
    std::unique_lock<std::mutex> L(M);
    if (++Arrived == Parties)
      All.notify_all();
    return All.wait_for(L, std::chrono::seconds(10),
                        [&] { return Arrived >= Parties; });
  }

private:
  const unsigned Parties;
  std::mutex M;
  std::condition_variable All;
  unsigned Arrived = 0;
};

} // namespace

TEST(WorkerPool, NoHelpersBeforeTheFirstMultiTaskLoop) {
  ASSERT_EQ(WorkerPool::helperThreads(), 0u);

  // A whole analysis at one job never starts a helper.
  ir::AnalyzedProgram AP = ir::analyzeSource(kernels::cholsky());
  ASSERT_TRUE(AP.ok());
  engine::AnalysisRequest Serial;
  Serial.Jobs = 1;
  engine::DependenceEngine(Serial).analyze(AP);
  EXPECT_EQ(WorkerPool::helperThreads(), 0u);

  // Nor does a single task, which runs inline even in a wide pool.
  WorkerPool Wide(0);
  std::vector<TaskRun> One = recordRuns(Wide, 1);
  EXPECT_EQ(One[0].Thread, std::this_thread::get_id());
  EXPECT_EQ(One[0].Ctx, &Wide.firstContext());
  EXPECT_EQ(WorkerPool::helperThreads(), 0u);

  // Nor many tasks on a one-job pool.
  WorkerPool Narrow(1);
  EXPECT_EQ(threadsOf(recordRuns(Narrow, 32)),
            std::set<std::thread::id>{std::this_thread::get_id()});
  EXPECT_EQ(WorkerPool::helperThreads(), 0u);

  // The first loop that can use a helper starts all of them, once.
  recordRuns(Wide, 32);
  EXPECT_EQ(WorkerPool::helperThreads(), engine::usableCores() - 1);
  recordRuns(Wide, 32);
  EXPECT_EQ(WorkerPool::helperThreads(), engine::usableCores() - 1);
}

TEST(WorkerPool, CallerRunsTasksUnderTheFirstContext) {
  WorkerPool Pool(0);
  std::vector<TaskRun> Runs = recordRuns(Pool, 64);
  const std::thread::id Caller = std::this_thread::get_id();
  std::set<OmegaContext *> Pooled;
  Pool.forEachContext([&](OmegaContext &C) { Pooled.insert(&C); });
  std::set<OmegaContext *> Used;
  unsigned ByCaller = 0;
  for (const TaskRun &R : Runs) {
    ASSERT_TRUE(Pooled.count(R.Ctx)) << "task ran outside the pool's contexts";
    // The caller always works under the first context, helpers never do.
    EXPECT_EQ(R.Thread == Caller, R.Ctx == &Pool.firstContext());
    ByCaller += R.Thread == Caller;
    Used.insert(R.Ctx);
  }
  EXPECT_GT(ByCaller, 0u);
  EXPECT_LE(threadsOf(Runs).size(), Pool.maxJobs());
  EXPECT_LE(Used.size(), Pool.maxJobs());
}

TEST(WorkerPool, JobsAreCappedAtTheUsableCores) {
  const unsigned Cores = engine::usableCores();
  ASSERT_GE(Cores, 1u);
  EXPECT_EQ(engine::resolveJobs(0), Cores);
  EXPECT_EQ(engine::resolveJobs(1), 1u);
  EXPECT_EQ(engine::resolveJobs(10000), Cores);
  EXPECT_EQ(engine::resolveJobs(4294967295u), Cores);
  // omega-serve's share rule: the cores split evenly, at least one each.
  EXPECT_EQ(engine::resolveJobs(0, 4), std::max(1u, Cores / 4));
  EXPECT_EQ(engine::resolveJobs(0, 100000), 1u);
  EXPECT_EQ(engine::resolveJobs(2, 100000), std::min(2u, Cores));

  // A huge request builds no more contexts than can run, and answers as
  // the serial engine does.
  EXPECT_EQ(WorkerPool(10000).maxJobs(), Cores);
  engine::AnalysisRequest Huge;
  Huge.Jobs = 10000;
  engine::DependenceEngine Engine(Huge);
  EXPECT_EQ(Engine.maxJobs(), Cores);
  EXPECT_EQ(Engine.jobs(), Cores);
  ir::AnalyzedProgram AP = ir::analyzeSource(kernels::cholsky());
  ASSERT_TRUE(AP.ok());
  engine::AnalysisRequest Serial;
  engine::AnalysisResult Wide = Engine.analyze(AP);
  engine::AnalysisResult One = engine::DependenceEngine(Serial).analyze(AP);
  EXPECT_EQ(api::renderResult(Wide, &AP), api::renderResult(One, &AP));
}

// Two engines (and two bare pools) run loops at the same time from
// different threads. Neither may wait for the other's helpers, and the
// helpers they share never outnumber usableCores() - 1, so with its caller
// no loop runs on more threads than there are usable cores.
TEST(WorkerPool, ConcurrentCallersShareTheHelpers) {
  ir::AnalyzedProgram AP = ir::analyzeSource(kernels::cholsky());
  ASSERT_TRUE(AP.ok());
  engine::AnalysisRequest Serial;
  const std::string Expected =
      api::renderResult(engine::DependenceEngine(Serial).analyze(AP), &AP);

  std::mutex M;
  std::set<std::thread::id> Helpers;
  std::vector<std::thread::id> Callers;
  std::atomic<unsigned> Running{0}, MaxRunning{0};
  auto caller = [&] {
    WorkerPool Pool(0);
    for (unsigned Round = 0; Round != 20; ++Round) {
      std::set<std::thread::id> Loop;
      Pool.parallelFor(16, [&](std::size_t, OmegaContext &) {
        unsigned Now = Running.fetch_add(1) + 1;
        unsigned Max = MaxRunning.load();
        while (Now > Max && !MaxRunning.compare_exchange_weak(Max, Now))
          ;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        Running.fetch_sub(1);
        std::lock_guard<std::mutex> G(M);
        Loop.insert(std::this_thread::get_id());
      });
      EXPECT_LE(Loop.size(), Pool.maxJobs());
      std::lock_guard<std::mutex> G(M);
      Loop.erase(std::this_thread::get_id());
      Helpers.insert(Loop.begin(), Loop.end());
    }
    engine::AnalysisRequest Wide;
    Wide.Jobs = 0;
    engine::DependenceEngine Engine(Wide);
    for (unsigned Round = 0; Round != 2; ++Round)
      EXPECT_EQ(api::renderResult(Engine.analyze(AP), &AP), Expected);
    std::lock_guard<std::mutex> G(M);
    Callers.push_back(std::this_thread::get_id());
  };
  std::thread A(caller), B(caller);
  A.join();
  B.join();

  ASSERT_EQ(Callers.size(), 2u);
  for (std::thread::id C : Callers)
    EXPECT_FALSE(Helpers.count(C)) << "a caller ran the other's tasks";
  EXPECT_LE(Helpers.size(), engine::usableCores() - 1);
  EXPECT_LE(WorkerPool::helperThreads(), engine::usableCores() - 1);
  // Both callers plus every helper is the most that can ever run at once.
  EXPECT_LE(MaxRunning.load(), engine::usableCores() + 1);
}

// A pool at one job never lends: a task's fan-out through its context
// runs inline on the task's thread and context, in index order, and
// starts no helper, however often the task fans out.
TEST(WorkerPool, FanOutAtOneJobRunsInline) {
  const unsigned Before = WorkerPool::helperThreads();
  WorkerPool Narrow(1);
  const std::thread::id Caller = std::this_thread::get_id();
  Narrow.parallelFor(4, [&](std::size_t, OmegaContext &Ctx) {
    std::vector<std::size_t> Order;
    for (int Round = 0; Round != 2; ++Round)
      Ctx.forEachIndependent(8, [&](std::size_t J, OmegaContext &Sub) {
        EXPECT_EQ(std::this_thread::get_id(), Caller);
        EXPECT_EQ(&Sub, &Ctx);
        Order.push_back(J);
      });
    EXPECT_EQ(Order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7, 0, 1,
                                               2, 3, 4, 5, 6, 7}));
  });
  EXPECT_EQ(WorkerPool::helperThreads(), Before);
}

// While every helper works for the pool, a task's fan-out finds none idle
// and runs on the task's own thread, under its own context, without
// waiting for anyone.
TEST(WorkerPool, FanOutWithEveryHelperBusyRunsOnTheCaller) {
  WorkerPool Pool(0);
  if (Pool.jobs() < 2)
    GTEST_SKIP() << "one usable core: there are no helpers";
  Rendezvous AllBusy(Pool.jobs()), AllDone(Pool.jobs());
  std::atomic<unsigned> Stray{0};
  Pool.parallelFor(Pool.jobs(), [&](std::size_t, OmegaContext &Ctx) {
    // Every worker holds one task from before the first fan-out until
    // after the last.
    ASSERT_TRUE(AllBusy.arrive()) << "the pool did not lend every helper";
    const std::thread::id Mine = std::this_thread::get_id();
    Ctx.forEachIndependent(16, [&](std::size_t, OmegaContext &Sub) {
      if (std::this_thread::get_id() != Mine || &Sub != &Ctx)
        ++Stray;
    });
    EXPECT_TRUE(AllDone.arrive());
  });
  EXPECT_EQ(Stray.load(), 0u);
}

// A fan-out that does borrow: sub-tasks run on several threads under
// contexts of their own, and the caller's context ends up with their
// counters, their trace records in index order (an inline run's explain
// log) and their overflow.
TEST(WorkerPool, FanOutHandsCountersTraceAndOverflowToTheCaller) {
  obs::Tracer Tracer;
  WorkerPool Pool(0, &Tracer);
  const std::thread::id Caller = std::this_thread::get_id();
  const bool HasHelpers = engine::usableCores() > 1;
  std::atomic<bool> HelperRan{false};
  bool Overflowed = false, CallerFlagBefore = true;
  Pool.parallelFor(1, [&](std::size_t, OmegaContext &Ctx) {
    obs::TaskScope Task(Ctx.Trace, /*Key=*/7, "fan-out");
    Ctx.Trace->decision("before");
    CallerFlagBefore = arithOverflowFlag();
    Ctx.forEachIndependent(16, [&](std::size_t J, OmegaContext &Sub) {
      if (std::this_thread::get_id() != Caller) {
        HelperRan = true;
      } else if (HasHelpers) {
        // Hold the caller until a helper has taken a sub-task too.
        auto Until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!HelperRan && std::chrono::steady_clock::now() < Until)
          std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      // Later sub-tasks finish first when they run side by side.
      std::this_thread::sleep_for(std::chrono::microseconds(50 * (16 - J)));
      Sub.Stats.SatisfiabilityCalls += J + 1;
      Sub.Trace->decision("sub-task " + std::to_string(J));
      if (J == 11)
        checkedMul(std::numeric_limits<int64_t>::max(), 2);
    });
    Ctx.Trace->decision("after");
    Overflowed = arithOverflowFlag();
    arithOverflowFlag() = false;
  });
  EXPECT_FALSE(CallerFlagBefore);
  EXPECT_TRUE(Overflowed);
  EXPECT_EQ(Pool.mergedStats().SatisfiabilityCalls, 16u * 17u / 2u);
  EXPECT_EQ(HelperRan.load(), HasHelpers) << "the fan-out borrowed no helper";

  std::string Expected = "fan-out:\n  before\n";
  for (unsigned J = 0; J != 16; ++J)
    Expected += "  sub-task " + std::to_string(J) + "\n";
  Expected += "  after\n";
  EXPECT_EQ(Tracer.explainLog(), Expected);
}

// Fan-outs borrow only within the pool's jobs: however the tasks and
// their sub-tasks nest, no more than jobs() threads work for the pool at
// once, and every fan-out returns as a loop would.
TEST(WorkerPool, FanOutsNeverExceedTheJobs) {
  for (unsigned Jobs : {2u, 0u}) {
    WorkerPool Pool(Jobs);
    SCOPED_TRACE(Pool.jobs());
    Occupancy Busy;
    std::atomic<unsigned> Ran{0};
    Pool.parallelFor(6, [&](std::size_t, OmegaContext &Ctx) {
      Busy.enter();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      Busy.leave();
      Ctx.forEachIndependent(6, [&](std::size_t, OmegaContext &Sub) {
        Busy.enter();
        std::this_thread::sleep_for(std::chrono::microseconds(100));
        Busy.leave();
        Sub.forEachIndependent(3, [&](std::size_t, OmegaContext &) {
          Busy.enter();
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          Busy.leave();
          ++Ran;
        });
      });
    });
    EXPECT_EQ(Ran.load(), 6u * 6u * 3u);
    EXPECT_LE(Busy.Max.load(), Pool.jobs());
  }
}
