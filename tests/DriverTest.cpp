//===- tests/DriverTest.cpp -----------------------------------------------===//
//
// Unit tests for the whole-program driver's bookkeeping: pair records,
// kill records, table rendering, option toggles, and the Omega-test
// statistics counters the benchmarks rely on.
//
//===----------------------------------------------------------------------===//

#include "analysis/Driver.h"
#include "engine/DependenceEngine.h"

#include "kernels/Kernels.h"
#include "omega/OmegaContext.h"
#include "omega/Satisfiability.h"

#include <gtest/gtest.h>

using namespace omega;
using namespace omega::analysis;
using omega::ir::analyzeSource;

TEST(Driver, PairRecordsEnumerateSameArrayPairs) {
  ir::AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                         "for i := 1 to n do\n"
                                         "  a(i) := a(i-1);\n"
                                         "  b(i) := b(i) + a(i);\n"
                                         "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  // Writes: a(i), b(i). Reads: a(i-1), b(i), a(i).
  // Same-array pairs: a-write x {a(i-1), a(i)} = 2; b-write x {b(i)} = 1.
  EXPECT_EQ(R.Pairs.size(), 3u);
  for (const PairRecord &P : R.Pairs) {
    EXPECT_EQ(P.Write->Array, P.Read->Array);
    EXPECT_GE(P.ExtendedSecs, P.StandardSecs);
  }
}

TEST(Driver, OptionsDisableStages) {
  ir::AnalyzedProgram AP = analyzeSource(kernels::example1());
  ASSERT_TRUE(AP.ok());

  DriverOptions NoKill;
  NoKill.Kill = false;
  AnalysisResult R = analyzeProgram(AP, NoKill);
  EXPECT_TRUE(R.Kills.empty());
  for (const deps::Dependence &D : R.Flow)
    EXPECT_FALSE(D.allDead());

  DriverOptions NoCover;
  NoCover.Cover = false;
  AnalysisResult R2 = analyzeProgram(AP, NoCover);
  for (const deps::Dependence &D : R2.Flow)
    EXPECT_FALSE(D.Covers);
}

TEST(Driver, NoRefineKeepsUnrefinedVectors) {
  ir::AnalyzedProgram AP = analyzeSource(kernels::example3());
  ASSERT_TRUE(AP.ok());
  DriverOptions NoRefine;
  NoRefine.Refine = false;
  AnalysisResult R = analyzeProgram(AP, NoRefine);
  for (const deps::Dependence &D : R.Flow)
    for (const deps::DepSplit &S : D.Splits)
      EXPECT_FALSE(S.Refined);
}

TEST(Driver, TablesIncludeHeadersAndTags) {
  ir::AnalyzedProgram AP = analyzeSource(kernels::example2());
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  std::string Live = R.liveFlowTable();
  std::string Dead = R.deadFlowTable();
  EXPECT_NE(Live.find("FROM"), std::string::npos);
  EXPECT_NE(Live.find("dir/dist"), std::string::npos);
  EXPECT_NE(Live.find("[C"), std::string::npos);  // the covering write
  EXPECT_NE(Dead.find("[c]"), std::string::npos); // a covered victim
}

TEST(Driver, KillRecordsNameParticipants) {
  ir::AnalyzedProgram AP = analyzeSource(kernels::example1());
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  ASSERT_FALSE(R.Kills.empty());
  bool SawSuccessfulKill = false;
  for (const KillRecord &K : R.Kills) {
    EXPECT_NE(K.From, nullptr);
    EXPECT_NE(K.Killer, nullptr);
    EXPECT_NE(K.To, nullptr);
    SawSuccessfulKill |= K.Killed;
  }
  EXPECT_TRUE(SawSuccessfulKill);
}

// A run's Omega work is reported on its result: the engine's R.Stats.
TEST(Driver, StatsCountersAdvance) {
  ir::AnalyzedProgram AP = analyzeSource(kernels::example3());
  ASSERT_TRUE(AP.ok());
  engine::DependenceEngine Engine;
  engine::AnalysisResult R = Engine.analyze(AP);
  EXPECT_GT(R.Stats.SatisfiabilityCalls, 0u);
  EXPECT_GT(R.Stats.ExactEliminations, 0u);
  uint64_t After = R.Stats.SatisfiabilityCalls;
  R.Stats.reset();
  EXPECT_EQ(R.Stats.SatisfiabilityCalls, 0u);
  EXPECT_LT(R.Stats.SatisfiabilityCalls, After);
}

TEST(Driver, EmptyProgramYieldsEmptyResult) {
  ir::AnalyzedProgram AP = analyzeSource("symbolic n;\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  EXPECT_TRUE(R.Flow.empty());
  EXPECT_TRUE(R.Anti.empty());
  EXPECT_TRUE(R.Output.empty());
  EXPECT_TRUE(R.Pairs.empty());
}

TEST(Driver, ReadOnlyArraysProduceNoPairs) {
  ir::AnalyzedProgram AP = analyzeSource("symbolic n;\n"
                                         "for i := 1 to n do\n"
                                         "  b(i) := a(i) + a(i+1);\n"
                                         "endfor\n");
  ASSERT_TRUE(AP.ok());
  AnalysisResult R = analyzeProgram(AP);
  // a is never written: no flow pairs for it; b is never read.
  EXPECT_TRUE(R.Pairs.empty());
  EXPECT_TRUE(R.Flow.empty());
}
