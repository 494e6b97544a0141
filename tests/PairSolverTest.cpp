//===- tests/PairSolverTest.cpp -------------------------------------------===//
//
// Unit tests for the pair solver's counter invariants: an empty iteration
// space answers every case with no dependence, and the profile report's
// Figure-6 query classes sum to SatisfiabilityCalls.
//
//===----------------------------------------------------------------------===//

#include "deps/PairSolver.h"
#include "engine/DependenceEngine.h"
#include "ir/Sema.h"
#include "kernels/Kernels.h"
#include "obs/Trace.h"

#include <gtest/gtest.h>

using namespace omega;

namespace {

engine::AnalysisResult analyze(const std::string &Source) {
  ir::AnalyzedProgram AP = ir::analyzeSource(Source);
  EXPECT_TRUE(AP.ok()) << Source;
  engine::AnalysisRequest Req;
  Req.Jobs = 1;
  engine::DependenceEngine Engine(Req);
  return Engine.analyze(AP);
}

} // namespace

//===----------------------------------------------------------------------===//
// Counter invariants
//===----------------------------------------------------------------------===//

TEST(PairSolverCounters, EmptyIterationSpaceShortCircuits) {
  // The inner loop never executes, so the shared pair system is already
  // unsatisfiable before any ordering rows: every (kind, level) case is
  // unsat, with no dependences.
  const std::string Source = "for i := 0 to 9 do\n"
                             "  for j := 5 to 4 do\n"
                             "    a(i + j) := a(i + j) + 1;\n"
                             "  endfor\n"
                             "endfor\n";
  engine::AnalysisResult R = analyze(Source);
  EXPECT_GT(R.Stats.SatisfiabilityCalls, 0u);
  EXPECT_TRUE(R.Flow.empty());
  EXPECT_TRUE(R.Anti.empty());
  EXPECT_TRUE(R.Output.empty());
}

TEST(PairSolverCounters, ProfileClassesSumToSatCalls) {
  // Every satisfiability query lands in exactly one Figure-6 class of the
  // profile report.
  ir::AnalyzedProgram AP = ir::analyzeSource(kernels::cholsky());
  ASSERT_TRUE(AP.ok());
  obs::Tracer T;
  engine::AnalysisRequest Req;
  Req.Jobs = 1;
  Req.Trace = &T;
  engine::DependenceEngine Engine(Req);
  engine::AnalysisResult R = Engine.analyze(AP);
  EXPECT_GT(R.Stats.SatisfiabilityCalls, 0u);
  obs::ProfileData P = T.profile();
  EXPECT_EQ(P.Classes.total(), P.Stats.SatisfiabilityCalls);
  EXPECT_EQ(P.Stats.SatisfiabilityCalls, R.Stats.SatisfiabilityCalls);
}
