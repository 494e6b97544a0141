//===- tests/OracleTest.cpp -----------------------------------------------===//
//
// Unit tests for the oracle library itself: the bounded-model checkers
// on hand-built problems, generator determinism, the metamorphic
// transformations, the delta-debugging shrinkers, and the end-to-end
// "injected kill bug is caught and shrunk" demonstration documented in
// TESTING.md.
//
//===----------------------------------------------------------------------===//

#include "analysis/Driver.h"
#include "ir/Sema.h"
#include "omega/Satisfiability.h"
#include "oracle/CrossCheck.h"
#include "oracle/Generate.h"
#include "oracle/Metamorphic.h"
#include "oracle/ModelOracle.h"
#include "oracle/Shrink.h"
#include "oracle/TraceOracle.h"

#include <gtest/gtest.h>

#include <random>

using namespace omega;

namespace {

Problem boxed(std::initializer_list<std::pair<int64_t, int64_t>> Bounds) {
  Problem P;
  VarId V = 0;
  for (auto [Lo, Hi] : Bounds) {
    P.addVar("x" + std::to_string(V));
    P.addGEQ({{V, 1}}, -Lo);
    P.addGEQ({{V, -1}}, Hi);
    ++V;
  }
  return P;
}

} // namespace

//===----------------------------------------------------------------------===//
// Bounded-model checks on known problems
//===----------------------------------------------------------------------===//

TEST(ModelOracle, AgreesOnKnownProblems) {
  OmegaContext Ctx;
  oracle::ModelReport Report;

  // Satisfiable: 2 <= x <= 5.
  Problem Sat = boxed({{2, 5}});
  oracle::checkSatisfiability(Sat, /*Box=*/8, Report, Ctx);

  // Unsatisfiable by integrality: 4 <= 3x <= 5.
  Problem Unsat = boxed({{-8, 8}});
  Unsat.addGEQ({{0, 3}}, -4);
  Unsat.addGEQ({{0, -3}}, 5);
  oracle::checkSatisfiability(Unsat, /*Box=*/8, Report, Ctx);

  // Projection of a coupled system.
  Problem Couple = boxed({{0, 6}, {0, 6}});
  Couple.addEQ({{0, 1}, {1, -2}}, 0); // x0 = 2 x1
  oracle::checkProjection(Couple, /*NumKeep=*/1, /*Box=*/6, Report, Ctx);

  // Gist and implication on nested intervals.
  Problem Inner = boxed({{2, 4}});
  Problem Outer = boxed({{0, 6}});
  oracle::checkGist(Inner, Outer, /*Box=*/8, Report, Ctx);
  oracle::checkImplication(Inner, Outer, /*Box=*/8, Report, Ctx);

  EXPECT_GT(Report.Checked, 0u);
  EXPECT_TRUE(Report.ok()) << Report.summary();
}

TEST(ModelOracle, BruteForceMatchesHandEvaluation) {
  Problem P = boxed({{1, 3}});
  EXPECT_TRUE(oracle::bruteForceSat(P, 4));
  P.addGEQ({{0, 1}}, -10); // x0 >= 10 contradicts x0 <= 3
  EXPECT_FALSE(oracle::bruteForceSat(P, 16));
}

//===----------------------------------------------------------------------===//
// Generators
//===----------------------------------------------------------------------===//

TEST(Generate, DeterministicForFixedSeed) {
  std::mt19937 A(99), B(99);
  oracle::RandomProblemConfig Cfg;
  Problem P1 = oracle::randomProblem(A, Cfg);
  Problem P2 = oracle::randomProblem(B, Cfg);
  EXPECT_EQ(P1.toString(), P2.toString());

  oracle::ProgramGenerator G1(7), G2(7);
  EXPECT_EQ(G1.generate(), G2.generate());
}

TEST(Generate, ProgramsAnalyzeAndProblemsStayBoxed) {
  std::mt19937 Rng(oracle::fuzzSeed(11));
  oracle::RandomProblemConfig Cfg;
  for (int I = 0; I != 20; ++I) {
    Problem P = oracle::randomProblem(Rng, Cfg);
    // Box bounds are the exactness contract of the bounded-model oracle:
    // brute force over the box must be decisive, i.e. any point found
    // inside [-Box, Box]^n is genuine and absence means UNSAT.
    for (VarId V = 0; V != static_cast<VarId>(P.getNumVars()); ++V)
      EXPECT_TRUE(P.involves(V)) << oracle::seedMessage(11);
  }
  oracle::ProgramGenerator Gen(oracle::fuzzSeed(11));
  for (int I = 0; I != 10; ++I) {
    std::string Src = Gen.generate();
    EXPECT_TRUE(ir::analyzeSource(Src).ok())
        << oracle::seedMessage(11) << "\n" << Src;
  }
}

//===----------------------------------------------------------------------===//
// Metamorphic transformations
//===----------------------------------------------------------------------===//

TEST(Metamorphic, TransformsPreserveSatisfiability) {
  OmegaContext Ctx;
  std::mt19937 Rng(oracle::fuzzSeed(5));
  oracle::RandomProblemConfig Cfg;
  oracle::ModelReport Report;
  for (int I = 0; I != 25; ++I) {
    Problem P = oracle::randomProblem(Rng, Cfg);
    oracle::checkProblemMetamorphic(P, Rng, Report, Ctx);
  }
  EXPECT_GT(Report.Checked, 0u);
  EXPECT_TRUE(Report.ok()) << oracle::seedMessage(5) << "\n"
                           << Report.summary();
}

TEST(Metamorphic, WideningIsMonotoneOnRecurrence) {
  const char *Src = "for i := 1 to 4 do\n"
                    "  a(i) := a(i-1);\n"
                    "endfor\n";
  ir::AnalyzedProgram Narrow = ir::analyzeSource(Src);
  ASSERT_TRUE(Narrow.ok());
  std::optional<ir::Program> Wide = oracle::widenLoopBounds(Narrow.Source, 3);
  ASSERT_TRUE(Wide.has_value());
  ir::AnalyzedProgram WideAP = ir::analyze(*Wide);
  ASSERT_TRUE(WideAP.ok());
  oracle::ModelReport Report;
  oracle::checkWidenedMonotone(Narrow, WideAP, Report);
  EXPECT_GT(Report.Checked, 0u);
  EXPECT_TRUE(Report.ok()) << Report.summary();
}

TEST(Metamorphic, WideningRefusesDownwardLoops) {
  ir::AnalyzedProgram AP = ir::analyzeSource("for i := 4 to 1 step -1 do\n"
                                             "  a(i) := 0;\n"
                                             "endfor\n");
  ASSERT_TRUE(AP.ok());
  EXPECT_FALSE(oracle::widenLoopBounds(AP.Source, 2).has_value());
}

//===----------------------------------------------------------------------===//
// Shrinkers
//===----------------------------------------------------------------------===//

TEST(Shrink, ProblemDropsIrrelevantRows) {
  // Failure predicate: "contains the contradiction x0 >= 3 && x0 <= 1".
  Problem P = boxed({{0, 1}, {0, 6}});
  P.addGEQ({{0, 1}}, -3);
  P.addEQ({{1, 1}}, -2); // irrelevant to the contradiction
  OmegaContext Ctx;
  auto StillFails = [&](const Problem &Cand) {
    return !isSatisfiable(Cand, Ctx);
  };
  ASSERT_TRUE(StillFails(P));
  Problem Small = oracle::shrinkProblem(P, StillFails);
  EXPECT_TRUE(StillFails(Small));
  EXPECT_LT(Small.constraints().size(), P.constraints().size());
}

TEST(Shrink, ProgramShrinksToCore) {
  // Note: spelled exactly as ir::Program::toString renders (no spaces
  // around operators), since the shrinker re-renders every candidate and
  // the predicate matches on text.
  std::string Source = "for i := 0 to 5 do\n"
                       "  for j := 0 to 3 do\n"
                       "    b(j) := 7;\n"
                       "    a(i) := a(i)+1;\n"
                       "    c(i+j) := b(j);\n"
                       "  endfor\n"
                       "endfor\n";
  // Failure predicate: "statement a(i) := a(i)+1 still present and the
  // program still analyzes" -- everything else should shrink away.
  auto StillFails = [](const std::string &Cand) {
    return Cand.find("a(i)+1") != std::string::npos &&
           ir::analyzeSource(Cand).ok();
  };
  ASSERT_TRUE(StillFails(Source));
  std::string Small = oracle::shrinkProgramSource(Source, StillFails);
  EXPECT_TRUE(StillFails(Small));
  EXPECT_EQ(Small.find("b(j)"), std::string::npos) << Small;
  EXPECT_EQ(Small.find("c(i+j)"), std::string::npos) << Small;
  EXPECT_LT(oracle::lineCount(Small), oracle::lineCount(Source));
}

TEST(Shrink, CalcScriptRoundTrips) {
  Problem P = boxed({{0, 4}});
  P.addGEQ({{0, 2}}, -3); // 2 x0 >= 3
  std::string Script = oracle::problemToCalcScript(P);
  EXPECT_NE(Script.find("sat P;"), std::string::npos);
  EXPECT_NE(Script.find("solution P;"), std::string::npos);
  EXPECT_GE(oracle::lineCount(Script), 3u);
}

//===----------------------------------------------------------------------===//
// The documented oracle demonstration: an injected kill-analysis bug is
// caught by the trace oracle and shrinks to a tiny reproducer.
//===----------------------------------------------------------------------===//

namespace {

/// Simulates the TESTING.md mutation: the analysis marks every live flow
/// split as killed. Returns true when the trace oracle catches it.
bool buggyKillAnalysisCaught(const std::string &Source) {
  ir::AnalyzedProgram AP = ir::analyzeSource(Source);
  if (!AP.ok())
    return false;
  analysis::AnalysisResult R = analysis::analyzeProgram(AP);
  for (deps::Dependence &D : R.Flow)
    for (deps::DepSplit &S : D.Splits)
      if (!S.Dead) {
        S.Dead = true;
        S.DeadReason = 'k';
      }
  deps::DependenceAnalysis DA(AP);
  std::vector<deps::Dependence> UnrefinedFlow =
      DA.computeDependences(deps::DepKind::Flow);
  oracle::TraceReport Trace = oracle::checkTraceWitnesses(AP, R, UnrefinedFlow);
  return !Trace.ExecFailed && !Trace.Truncated && !Trace.Mismatches.empty();
}

} // namespace

TEST(InjectedBug, KillAnalysisBugIsCaughtAndShrunk) {
  // The simplest live flow there is: a written value read one iteration
  // later. Killing it must refuse a value witness.
  std::string Source = "for i := 1 to 4 do\n"
                       "  a(i) := a(i-1);\n"
                       "endfor\n";
  ASSERT_TRUE(buggyKillAnalysisCaught(Source));

  // And the correct analysis passes the same oracle.
  std::vector<std::string> Clean = oracle::crossCheckProgram(Source);
  EXPECT_TRUE(Clean.empty()) << Clean.front();

  // The shrinker keeps the catch while minimizing, and lands within the
  // acceptance bound.
  std::string Padded = "x(9) := 3;\n"
                       "for i := 1 to 4 do\n"
                       "  for j := 0 to 3 do\n"
                       "    b(j) := x(9);\n"
                       "    a(i) := a(i-1);\n"
                       "  endfor\n"
                       "endfor\n";
  ASSERT_TRUE(buggyKillAnalysisCaught(Padded));
  std::string Small =
      oracle::shrinkProgramSource(Padded, buggyKillAnalysisCaught);
  EXPECT_TRUE(buggyKillAnalysisCaught(Small));
  EXPECT_LE(oracle::lineCount(Small), 10u) << Small;
}
