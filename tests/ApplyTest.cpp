//===- tests/ApplyTest.cpp ------------------------------------------------===//
//
// Tests for applied transformations. The strongest checks run the
// interpreter before and after the rewrite and compare final memory --
// a legal interchange must preserve semantics; an illegal one (per the
// dependence analysis) visibly breaks them.
//
//===----------------------------------------------------------------------===//

#include "transform/Apply.h"

#include "ir/Interp.h"
#include "ir/Parser.h"
#include "transform/Pipeline.h"

#include <gtest/gtest.h>

using namespace omega;
using namespace omega::transform;

namespace {

ir::ExecResult runProgram(const ir::Program &P,
                          std::map<std::string, int64_t> Symbols) {
  ir::ExecConfig Config;
  Config.Symbols = std::move(Symbols);
  return interpret(P, Config);
}

const ir::LoopInfo *loopNamed(const ir::AnalyzedProgram &AP,
                              const std::string &V) {
  for (const auto &L : AP.Loops)
    if (L->SourceVar == V)
      return L.get();
  return nullptr;
}

} // namespace

TEST(Apply, InterchangeSwapsHeaders) {
  ir::ParseResult PR = ir::parseProgram("for i := 1 to 3 do\n"
                                        "  for j := 5 to 9 do\n"
                                        "    a(i,j) := 0;\n"
                                        "  endfor\n"
                                        "endfor\n");
  ASSERT_TRUE(PR.ok());
  ASSERT_EQ(interchange(PR.Prog, "i", "j"), ApplyResult::Applied);
  const ir::ForStmt &Outer = PR.Prog.Body[0].asFor();
  EXPECT_EQ(Outer.Var, "j");
  EXPECT_EQ(Outer.Lo.toString(), "5");
  EXPECT_EQ(Outer.Body[0].asFor().Var, "i");
}

TEST(Apply, InterchangeRejectsImperfectNest) {
  ir::ParseResult PR = ir::parseProgram("for i := 1 to 3 do\n"
                                        "  x(i) := 0;\n"
                                        "  for j := 1 to 3 do\n"
                                        "    a(i,j) := 0;\n"
                                        "  endfor\n"
                                        "endfor\n");
  ASSERT_TRUE(PR.ok());
  EXPECT_EQ(interchange(PR.Prog, "i", "j"),
            ApplyResult::NotPerfectlyNested);
}

TEST(Apply, InterchangeRejectsTriangular) {
  ir::ParseResult PR = ir::parseProgram("for i := 1 to 5 do\n"
                                        "  for j := i to 5 do\n"
                                        "    a(i,j) := 0;\n"
                                        "  endfor\n"
                                        "endfor\n");
  ASSERT_TRUE(PR.ok());
  EXPECT_EQ(interchange(PR.Prog, "i", "j"),
            ApplyResult::BoundsDependOnOuter);
}

TEST(Apply, LegalInterchangePreservesSemantics) {
  // Wavefront: interchange is legal per the analysis; the final array
  // contents must be identical.
  const char *Src = "for i := 2 to 6 do\n"
                    "  for j := 2 to 6 do\n"
                    "    a(i,j) := a(i-1,j) + a(i,j-1) + 1;\n"
                    "  endfor\n"
                    "endfor\n";
  ir::AnalyzedProgram AP = ir::analyzeSource(Src);
  ASSERT_TRUE(AP.ok());
  analysis::AnalysisResult R = analysis::analyzeProgram(AP);
  ASSERT_TRUE(canInterchange(R, loopNamed(AP, "i"), loopNamed(AP, "j")));

  ir::ParseResult Before = ir::parseProgram(Src);
  ir::ParseResult After = ir::parseProgram(Src);
  ASSERT_EQ(interchange(After.Prog, "i", "j"), ApplyResult::Applied);

  ir::ExecResult RB = runProgram(Before.Prog, {});
  ir::ExecResult RA = runProgram(After.Prog, {});
  ASSERT_FALSE(RB.Failed);
  ASSERT_FALSE(RA.Failed);
  EXPECT_EQ(RB.FinalState, RA.FinalState);
}

TEST(Apply, IllegalInterchangeChangesSemantics) {
  // Anti-diagonal: (1,-1) dependence; the analysis rejects interchange,
  // and indeed swapping changes the final values.
  const char *Src = "for i := 2 to 6 do\n"
                    "  for j := 2 to 6 do\n"
                    "    a(i,j) := a(i-1,j+1) + 1;\n"
                    "  endfor\n"
                    "endfor\n";
  ir::AnalyzedProgram AP = ir::analyzeSource(Src);
  ASSERT_TRUE(AP.ok());
  analysis::AnalysisResult R = analysis::analyzeProgram(AP);
  EXPECT_FALSE(canInterchange(R, loopNamed(AP, "i"), loopNamed(AP, "j")));

  ir::ParseResult Before = ir::parseProgram(Src);
  ir::ParseResult After = ir::parseProgram(Src);
  ASSERT_EQ(interchange(After.Prog, "i", "j"), ApplyResult::Applied);

  ir::ExecResult RB = runProgram(Before.Prog, {});
  ir::ExecResult RA = runProgram(After.Prog, {});
  EXPECT_NE(RB.FinalState, RA.FinalState);
}

TEST(Apply, InterchangeAgreesWithAnalysisOnCorpusShapes) {
  // For a batch of rectangular 2-deep kernels: whenever the analysis says
  // interchange is legal and the shape admits a header swap, semantics
  // are preserved.
  const char *Sources[] = {
      "for i := 1 to 5 do\n  for j := 1 to 5 do\n"
      "    a(i,j) := a(i,j) + 1;\n  endfor\nendfor\n",
      "for i := 2 to 6 do\n  for j := 1 to 6 do\n"
      "    a(i,j) := a(i-1,j) + 2;\n  endfor\nendfor\n",
      "for i := 1 to 6 do\n  for j := 2 to 6 do\n"
      "    a(i,j) := a(i,j-1) + 3;\n  endfor\nendfor\n",
      "for i := 1 to 4 do\n  for j := 1 to 4 do\n"
      "    b(j,i) := a(i,j);\n  endfor\nendfor\n",
  };
  for (const char *Src : Sources) {
    ir::AnalyzedProgram AP = ir::analyzeSource(Src);
    ASSERT_TRUE(AP.ok()) << Src;
    analysis::AnalysisResult R = analysis::analyzeProgram(AP);
    if (!canInterchange(R, AP.Loops[0].get(), AP.Loops[1].get()))
      continue;
    ir::ParseResult Before = ir::parseProgram(Src);
    ir::ParseResult After = ir::parseProgram(Src);
    std::string OuterVar = After.Prog.Body[0].asFor().Var;
    std::string InnerVar =
        After.Prog.Body[0].asFor().Body[0].asFor().Var;
    if (interchange(After.Prog, OuterVar, InnerVar) != ApplyResult::Applied)
      continue;
    EXPECT_EQ(runProgram(Before.Prog, {}).FinalState,
              runProgram(After.Prog, {}).FinalState)
        << Src;
  }
}

TEST(Apply, ParallelScheduleAnnotatesDoallLoops) {
  ir::AnalyzedProgram AP = ir::analyzeSource("symbolic n, m;\n"
                                             "for L1 := 1 to n do\n"
                                             "  for L2 := 2 to m do\n"
                                             "    a(L2) := a(L2-1);\n"
                                             "  endfor\n"
                                             "endfor\n");
  ASSERT_TRUE(AP.ok());
  analysis::AnalysisResult R = analysis::analyzeProgram(AP);
  std::string Schedule = transform::renderParallelSchedule(AP, R);
  // Refinement leaves only storage traffic carried by L1: it runs in
  // parallel once the array is renamed; L2 stays serial.
  EXPECT_NE(Schedule.find("parallel(after renaming) for L1"),
            std::string::npos);
  EXPECT_EQ(Schedule.find("parallel for L2"), std::string::npos);
  EXPECT_EQ(Schedule.find("parallel(after renaming) for L2"),
            std::string::npos);
}

TEST(Apply, ParallelScheduleDistinguishesSameNameLoops) {
  // Two sibling loops named i: one parallel, one serial.
  ir::AnalyzedProgram AP = ir::analyzeSource("symbolic n;\n"
                                             "for i := 1 to n do\n"
                                             "  b(i) := a(i);\n"
                                             "endfor\n"
                                             "for i := 2 to n do\n"
                                             "  c(i) := c(i-1);\n"
                                             "endfor\n");
  ASSERT_TRUE(AP.ok());
  analysis::AnalysisResult R = analysis::analyzeProgram(AP);
  std::string Schedule = transform::renderParallelSchedule(AP, R);
  size_t First = Schedule.find("for i := 1");
  size_t Second = Schedule.find("for i := 2");
  ASSERT_NE(First, std::string::npos);
  ASSERT_NE(Second, std::string::npos);
  EXPECT_NE(Schedule.find("parallel for i := 1"), std::string::npos);
  EXPECT_EQ(Schedule.find("parallel for i := 2"), std::string::npos);
}

namespace {

/// Final memory minus the "@p" scratch arrays privatization introduces.
std::map<std::string, std::map<std::vector<int64_t>, int64_t>>
visibleState(const ir::ExecResult &R) {
  std::map<std::string, std::map<std::vector<int64_t>, int64_t>> Out;
  for (const auto &[Array, Cells] : R.FinalState)
    if (!isPipelineTempArray(Array))
      Out[Array] = Cells;
  return Out;
}

/// Applies every valid pipeline plan of \p Src and interprets original
/// vs staged, requiring identical visible final state. Returns the number
/// of plans executed.
unsigned checkPipelinedExecution(const std::string &Src,
                                 std::map<std::string, int64_t> Symbols,
                                 const analysis::DriverOptions &DOpts =
                                     analysis::DriverOptions()) {
  ir::AnalyzedProgram AP = ir::analyzeSource(Src);
  EXPECT_TRUE(AP.ok()) << Src;
  if (!AP.ok())
    return 0;
  analysis::AnalysisResult R = analysis::analyzeProgram(AP, DOpts);
  ir::ExecResult Base = runProgram(AP.Source, Symbols);
  EXPECT_FALSE(Base.Failed) << Base.Error;
  unsigned Applied = 0;
  for (const PipelineFacts &F : analyzePipelines(AP, R)) {
    if (!F.Plan.valid())
      continue;
    ir::Program Staged = AP.Source;
    EXPECT_EQ(applyPipeline(Staged, F.Plan), ApplyResult::Applied) << Src;
    ir::ExecResult After = runProgram(Staged, Symbols);
    EXPECT_FALSE(After.Failed) << After.Error;
    EXPECT_EQ(visibleState(Base), visibleState(After))
        << "staged schedule for loop " << F.Plan.Loop->SourceVar
        << " diverges:\n"
        << Src;
    ++Applied;
  }
  return Applied;
}

} // namespace

TEST(Apply, PipelineSchedulePreservesSemantics) {
  unsigned Plans =
      checkPipelinedExecution("symbolic n;\n"
                              "for i := 1 to n do\n"
                              "  s(0) := s(0) + a(i);\n"
                              "  t(0) := a(i-1) + a(i+1);\n"
                              "  b(i) := t(0) * t(0);\n"
                              "  d(0) := d(0) + b(i);\n"
                              "endfor\n",
                              {{"n", 6}});
  EXPECT_EQ(Plans, 1u);
}

TEST(Apply, PipelineLegalOnlyAfterKills) {
  // The staged schedule fissions reads of t away from its writes: legal
  // only because the Section 4 cover analysis proves the carried flow on
  // t dead and licenses privatization. The applied plan must both carry a
  // parallel stage and preserve semantics; the --no-cover world plans no
  // parallel stage at all.
  const char *Src = "symbolic n;\n"
                    "for i := 1 to n do\n"
                    "  t(0) := a(i-1) + a(i+1);\n"
                    "  b(i) := t(0) * t(0);\n"
                    "  d(0) := d(0) + b(i);\n"
                    "endfor\n";
  ir::AnalyzedProgram AP = ir::analyzeSource(Src);
  ASSERT_TRUE(AP.ok());
  analysis::AnalysisResult R = analysis::analyzeProgram(AP);
  std::vector<PipelineFacts> Facts = analyzePipelines(AP, R);
  ASSERT_EQ(Facts.size(), 1u);
  ASSERT_TRUE(Facts[0].Plan.valid());
  EXPECT_TRUE(Facts[0].Plan.hasParallelStage());
  EXPECT_EQ(Facts[0].Plan.PrivatizedArrays, std::vector<std::string>{"t"});
  EXPECT_EQ(checkPipelinedExecution(Src, {{"n", 5}}), 1u);

  analysis::DriverOptions NoCover;
  NoCover.Cover = false;
  NoCover.Kill = false;
  analysis::AnalysisResult RNC = analysis::analyzeProgram(AP, NoCover);
  for (const PipelineFacts &F : analyzePipelines(AP, RNC))
    EXPECT_FALSE(F.Plan.hasParallelStage());
  // Whatever the ablated world still plans must also execute correctly.
  checkPipelinedExecution(Src, {{"n", 5}}, NoCover);
}

TEST(Apply, PipelineStagedProgramUsesScratchArrays) {
  const char *Src = "symbolic n;\n"
                    "for i := 1 to n do\n"
                    "  t(0) := a(i-1) + a(i+1);\n"
                    "  b(i) := t(0) * t(0);\n"
                    "endfor\n";
  ir::AnalyzedProgram AP = ir::analyzeSource(Src);
  ASSERT_TRUE(AP.ok());
  analysis::AnalysisResult R = analysis::analyzeProgram(AP);
  std::vector<PipelineFacts> Facts = analyzePipelines(AP, R);
  ASSERT_EQ(Facts.size(), 1u);
  ASSERT_TRUE(Facts[0].Plan.valid());
  ir::Program Staged = AP.Source;
  ASSERT_EQ(applyPipeline(Staged, Facts[0].Plan), ApplyResult::Applied);
  std::string Text = Staged.toString();
  // The producer writes the renamed copy AND keeps the original store;
  // the consumer reads the renamed copy, indexed by the loop variable.
  EXPECT_NE(Text.find(std::string("t") + PipelineTempSuffix + "(i,0) :="),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("t(0) :="), std::string::npos) << Text;
  EXPECT_NE(Text.find(std::string("t") + PipelineTempSuffix + "(i,0)*"),
            std::string::npos)
      << Text;
  EXPECT_TRUE(isPipelineTempArray(std::string("t") + PipelineTempSuffix));
  EXPECT_FALSE(isPipelineTempArray("t"));
}

TEST(Apply, PipelineRejectsBadPlans) {
  ir::AnalyzedProgram AP = ir::analyzeSource("symbolic n;\n"
                                             "for i := 1 to n do\n"
                                             "  a(i) := a(i-1);\n"
                                             "endfor\n");
  ASSERT_TRUE(AP.ok());
  PipelinePlan Empty;
  ir::Program P = AP.Source;
  EXPECT_EQ(applyPipeline(P, Empty), ApplyResult::BadPlan);
}
