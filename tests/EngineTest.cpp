//===- tests/EngineTest.cpp - DependenceEngine behavior -------------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
// The engine's contract: parallel analysis fed by a result store returns
// structurally identical results to the serial pipeline with no reuse; the
// worker count never shows in results, counters or the explain log;
// repeat analyses are answered from the store; and concurrent
// OmegaContexts never share counters.
//
//===----------------------------------------------------------------------===//

#include "api/Response.h"
#include "engine/DependenceEngine.h"
#include "engine/ResultStore.h"
#include "engine/WorkerPool.h"
#include "kernels/Kernels.h"
#include "obs/Trace.h"
#include "oracle/Generate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace omega;

namespace {

std::string signatureOf(const std::vector<deps::Dependence> &Deps) {
  std::string Out;
  for (const deps::Dependence &D : Deps) {
    Out += std::to_string(D.Src->Id) + "->" + std::to_string(D.Dst->Id);
    Out += std::string("/") + deps::depKindName(D.Kind);
    if (D.Covers)
      Out += " C";
    if (D.CoverLoopIndependent)
      Out += "Li";
    for (const deps::DepSplit &S : D.Splits) {
      Out += " [L" + std::to_string(S.Level) + " " + S.dirToString();
      if (S.Dead)
        Out += std::string(" dead:") + (S.DeadReason ? S.DeadReason : '?');
      if (S.Refined)
        Out += " r";
      Out += "]";
    }
    Out += ";";
  }
  return Out;
}

/// Every structural (non-timing) field of an analysis result.
std::string signatureOf(const analysis::AnalysisResult &R) {
  std::string Out = "flow: " + signatureOf(R.Flow);
  Out += "\nanti: " + signatureOf(R.Anti);
  Out += "\noutput: " + signatureOf(R.Output);
  Out += "\npairs:";
  for (const analysis::PairRecord &P : R.Pairs) {
    Out += " (" + std::to_string(P.Write->Id) + "," +
           std::to_string(P.Read->Id) + (P.HasFlow ? " flow" : "") +
           (P.UsedGeneralTest ? " gen" : "") + (P.SplitVectors ? " split" : "") +
           ")";
  }
  Out += "\nkills:";
  for (const analysis::KillRecord &K : R.Kills) {
    Out += " (" + std::to_string(K.From->Id) + "," +
           std::to_string(K.Killer->Id) + "," + std::to_string(K.To->Id) +
           (K.UsedOmega ? " omega" : "") + (K.Killed ? " killed" : "") + ")";
  }
  return Out;
}

/// Every OmegaStats counter, in declaration order.
std::string countersOf(const OmegaStats &S) {
  std::string Out;
  for (uint64_t V :
       {S.SatisfiabilityCalls, S.ProjectionCalls, S.GistCalls,
        S.ExactEliminations, S.InexactEliminations, S.SplintersExplored,
        S.DarkShadowDecided, S.RealShadowDecided, S.ModHatSubstitutions,
        S.GistSatTests, S.ResultStoreHits, S.ResultStoreMisses,
        S.ResultStoreEvictions})
    Out += std::to_string(V) + " ";
  return Out;
}

engine::AnalysisRequest makeRequest(unsigned Jobs,
                                    engine::ResultStore *Store = nullptr,
                                    bool Terminate = false) {
  engine::AnalysisRequest Req;
  Req.Jobs = Jobs;
  Req.Store = Store;
  Req.Terminate = Terminate;
  return Req;
}

} // namespace

// Four workers with a result store must be byte-identical (structurally)
// to one worker with no reuse, over the whole paper corpus.
TEST(Engine, ParallelCachedMatchesSerialUncached) {
  engine::ResultStore Store;
  engine::DependenceEngine Serial(makeRequest(1));
  engine::DependenceEngine Parallel(makeRequest(4, &Store));
  EXPECT_EQ(Serial.jobs(), 1u);
  EXPECT_EQ(Parallel.jobs(), 4u);

  unsigned Analyzed = 0;
  for (const kernels::Kernel &K : kernels::corpus()) {
    ir::AnalyzedProgram AP = ir::analyzeSource(K.Source);
    if (!AP.ok())
      continue;
    engine::AnalysisResult RS = Serial.analyze(AP);
    engine::AnalysisResult RP = Parallel.analyze(AP);
    EXPECT_EQ(signatureOf(RS), signatureOf(RP)) << "kernel " << K.Name;
    EXPECT_EQ(RS.liveFlowTable(), RP.liveFlowTable()) << "kernel " << K.Name;
    EXPECT_EQ(RS.deadFlowTable(), RP.deadFlowTable()) << "kernel " << K.Name;
    ++Analyzed;
  }
  EXPECT_GT(Analyzed, 0u);
  EXPECT_GT(Store.size(), 0u);
}

// The terminating extension must shard identically too (it is the one
// phase that mutates dependences outside the per-read kill groups).
TEST(Engine, TerminatePhaseIsDeterministic) {
  engine::DependenceEngine Serial(makeRequest(1, nullptr, /*Terminate=*/true));
  engine::DependenceEngine Parallel(
      makeRequest(4, nullptr, /*Terminate=*/true));
  for (const kernels::Kernel &K : kernels::corpus()) {
    ir::AnalyzedProgram AP = ir::analyzeSource(K.Source);
    if (!AP.ok())
      continue;
    EXPECT_EQ(signatureOf(Serial.analyze(AP)),
              signatureOf(Parallel.analyze(AP)))
        << "kernel " << K.Name;
  }
}

// Re-analyzing the same program on an engine with a result store must be
// answered entirely from the store -- no Omega call at all -- and still
// return the same result.
TEST(Engine, RepeatedAnalysisHitsCache) {
  engine::ResultStore Store;
  engine::DependenceEngine Engine(makeRequest(1, &Store));
  ir::AnalyzedProgram AP = ir::analyzeSource(kernels::example1());
  ASSERT_TRUE(AP.ok());

  engine::AnalysisResult First = Engine.analyze(AP);
  EXPECT_EQ(First.Stats.ResultStoreHits, 0u);
  EXPECT_GT(First.Stats.ResultStoreMisses, 0u);
  EXPECT_GT(First.Stats.SatisfiabilityCalls, 0u);
  std::size_t Entries = Store.size();
  EXPECT_GT(Entries, 0u);

  engine::AnalysisResult Second = Engine.analyze(AP);
  EXPECT_EQ(Second.Stats.ResultStoreMisses, 0u);
  EXPECT_EQ(Second.Stats.ResultStoreHits, First.Stats.ResultStoreMisses);
  EXPECT_EQ(Second.Stats.SatisfiabilityCalls, 0u);
  // Every outcome the second run needed was already stored: no new
  // entries appear.
  EXPECT_EQ(Store.size(), Entries);
  EXPECT_EQ(signatureOf(First), signatureOf(Second));
}

// Two engines analyzing on different threads must not bleed counters into
// each other's results.
TEST(Engine, ConcurrentContextStatsAreIsolated) {
  ir::AnalyzedProgram AP1 = ir::analyzeSource(kernels::example1());
  ir::AnalyzedProgram AP3 = ir::analyzeSource(kernels::example3());
  ASSERT_TRUE(AP1.ok());
  ASSERT_TRUE(AP3.ok());

  // Serial baselines: what each program costs in a fresh engine.
  auto baseline = [](const ir::AnalyzedProgram &AP) {
    engine::DependenceEngine Engine;
    return Engine.analyze(AP).Stats;
  };
  OmegaStats Base1 = baseline(AP1);
  OmegaStats Base3 = baseline(AP3);
  ASSERT_GT(Base1.SatisfiabilityCalls, 0u);
  ASSERT_GT(Base3.SatisfiabilityCalls, 0u);
  ASSERT_NE(Base1.SatisfiabilityCalls, Base3.SatisfiabilityCalls);

  OmegaStats Got1, Got3;
  std::thread T1([&] {
    engine::DependenceEngine Engine;
    for (int I = 0; I != 3; ++I)
      Got1.merge(Engine.analyze(AP1).Stats);
  });
  std::thread T3([&] {
    engine::DependenceEngine Engine;
    for (int I = 0; I != 3; ++I)
      Got3.merge(Engine.analyze(AP3).Stats);
  });
  T1.join();
  T3.join();

  // Each thread saw exactly three times its own baseline -- nothing from
  // the sibling thread leaked in.
  EXPECT_EQ(Got1.SatisfiabilityCalls, 3 * Base1.SatisfiabilityCalls);
  EXPECT_EQ(Got3.SatisfiabilityCalls, 3 * Base3.SatisfiabilityCalls);
  EXPECT_EQ(Got1.ExactEliminations, 3 * Base1.ExactEliminations);
  EXPECT_EQ(Got3.ExactEliminations, 3 * Base3.ExactEliminations);
}

// A parallel analysis runs one task per pair case and one per kill victim,
// and a heavy task fans its independent projections out to whichever
// helpers are idle, so its workers interleave the work differently from a
// serial run. Nothing observable may move: the result bytes, every
// counter, the kill records and the explain log match at one job and at
// two, three and four, over the costly corpus and the first 60 generated
// programs of seed 1.
TEST(Engine, JobsInvisibleOnCostlyAndGeneratedPrograms) {
  std::vector<std::pair<std::string, std::string>> Programs;
  for (const auto &Entry :
       std::filesystem::directory_iterator(OMEGA_COSTLY_DIR)) {
    if (Entry.path().extension() != ".tiny")
      continue;
    std::ifstream In(Entry.path());
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Programs.push_back({Entry.path().filename().string(), Buf.str()});
  }
  std::sort(Programs.begin(), Programs.end());
  ASSERT_FALSE(Programs.empty());
  oracle::ProgramGenerator Gen(1);
  for (unsigned I = 0; I != 60; ++I)
    Programs.push_back({"seed1 #" + std::to_string(I), Gen.generate()});

  struct Observed {
    std::string Result, Records, Counters, Explain;
  };
  for (const auto &[Name, Source] : Programs) {
    SCOPED_TRACE(Name);
    ir::AnalyzedProgram AP = ir::analyzeSource(Source);
    ASSERT_TRUE(AP.ok());
    auto run = [&](unsigned Jobs) {
      obs::Tracer T;
      engine::AnalysisRequest Req = makeRequest(Jobs);
      Req.Trace = &T;
      engine::DependenceEngine Engine(Req);
      engine::AnalysisResult R = Engine.analyze(AP);
      return Observed{api::renderResult(R, &AP), signatureOf(R),
                      countersOf(R.Stats), T.explainLog()};
    };
    Observed Serial = run(1);
    for (unsigned Jobs : {2u, 3u, 4u}) {
      SCOPED_TRACE(Jobs);
      Observed Parallel = run(Jobs);
      EXPECT_EQ(Serial.Result, Parallel.Result);
      EXPECT_EQ(Serial.Records, Parallel.Records);
      EXPECT_EQ(Serial.Counters, Parallel.Counters);
      EXPECT_EQ(Serial.Explain, Parallel.Explain);
    }
  }
}

// Jobs = 0 resolves to the usable cores (at least one worker).
TEST(Engine, AutoJobsResolves) {
  engine::DependenceEngine Engine(makeRequest(0));
  EXPECT_GE(Engine.jobs(), 1u);
  EXPECT_EQ(Engine.jobs(), engine::usableCores());
  ir::AnalyzedProgram AP = ir::analyzeSource(kernels::example1());
  ASSERT_TRUE(AP.ok());
  engine::DependenceEngine Serial(makeRequest(1));
  EXPECT_EQ(signatureOf(Engine.analyze(AP)), signatureOf(Serial.analyze(AP)));
}
