//===- tests/PipelineTest.cpp ---------------------------------------------===//
//
// PDG and pipeline-partition invariants. The PDG must reflect the
// kill-aware dependence table exactly (dead splits become Dead edges,
// carried anti on privatizable arrays becomes Removable); every plan the
// partitioner emits must be a topological ordering of whole SCCs with
// parallel stages free of carried edges; and the Section 4 machinery must
// be load-bearing: with dead edges put back (the --no-cover/--no-kill
// world) partitions get coarser and the showcase parallel stage vanishes.
//
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"

#include "analysis/Driver.h"
#include "ir/Sema.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

using namespace omega;
using namespace omega::transform;
namespace fs = std::filesystem;

namespace {

/// Stage index of every statement label, asserting each label appears in
/// exactly one stage.
std::map<unsigned, unsigned> stageOf(const PipelinePlan &Plan) {
  std::map<unsigned, unsigned> Stage;
  for (unsigned S = 0; S != Plan.Stages.size(); ++S)
    for (unsigned Label : Plan.Stages[S].StmtLabels) {
      EXPECT_EQ(Stage.count(Label), 0u)
          << "statement " << Label << " in two stages";
      Stage[Label] = S;
    }
  return Stage;
}

/// \p G with the Section 4 machinery undone: every dead and removable
/// edge live again and no array privatized -- the graph the partitioner
/// would see without kills, covers or privatization.
Pdg withoutKills(Pdg G) {
  for (PdgEdge &E : G.Edges) {
    E.Dead = false;
    E.Removable = false;
    E.DeadReason = 0;
  }
  G.PrivatizedArrays.clear();
  return G;
}

/// All pipeline invariants for one analyzed program, over its PDGs as
/// built or, with \p WithoutKills, as withoutKills leaves them. Returns
/// the number of valid plans seen.
unsigned checkInvariants(const ir::AnalyzedProgram &AP,
                         const analysis::AnalysisResult &R,
                         bool WithoutKills = false) {
  unsigned ValidPlans = 0;
  for (const auto &L : AP.Loops) {
    Pdg G = buildPdg(AP, R, L.get());
    if (WithoutKills)
      G = withoutKills(std::move(G));

    // Killed flow splits never reach the planner.
    for (const PdgEdge &E : G.Edges) {
      if (E.Dead || E.Removable) {
        EXPECT_FALSE(G.planningEdge(E));
      }
      EXPECT_LT(E.Src, G.StmtLabels.size());
      EXPECT_LT(E.Dst, G.StmtLabels.size());
    }

    PipelinePlan Plan = planPipeline(AP, G);
    if (!Plan.valid())
      continue;
    ++ValidPlans;
    EXPECT_LE(Plan.Stages.size(), MaxPipelineStages);

    // Every PDG statement lands in exactly one stage; no strangers.
    std::map<unsigned, unsigned> Stage = stageOf(Plan);
    EXPECT_EQ(Stage.size(), G.StmtLabels.size());
    for (unsigned Label : G.StmtLabels)
      EXPECT_EQ(Stage.count(Label), 1u) << "statement " << Label << " lost";

    for (const PdgEdge &E : G.Edges) {
      if (!G.planningEdge(E))
        continue;
      unsigned SrcStage = Stage.at(G.StmtLabels[E.Src]);
      unsigned DstStage = Stage.at(G.StmtLabels[E.Dst]);
      // Topological order: a carried edge may point backward only within
      // one stage (an SCC cycle); loop-independent edges follow program
      // order across stages. Either way stage(src) <= stage(dst) except
      // inside a single stage.
      if (SrcStage != DstStage) {
        EXPECT_LT(SrcStage, DstStage)
            << "live dependence " << G.StmtLabels[E.Src] << "->"
            << G.StmtLabels[E.Dst] << " violated by stage order";
      }
      // A parallel stage contains no carried edge.
      if (E.LoopCarried && SrcStage == DstStage) {
        EXPECT_FALSE(Plan.Stages[SrcStage].Parallel)
            << "carried edge inside parallel stage " << SrcStage;
      }
    }

    // The cost model adds up.
    uint64_t Sum = 0;
    for (const PipelineStage &S : Plan.Stages) {
      EXPECT_FALSE(S.StmtLabels.empty());
      EXPECT_TRUE(std::is_sorted(S.StmtLabels.begin(), S.StmtLabels.end()));
      Sum += S.Weight;
    }
    EXPECT_EQ(Sum, Plan.TotalWeight);
    EXPECT_GE(Plan.EstimatedSpeedup, 1.0);
  }
  return ValidPlans;
}

std::string readFile(const fs::path &P) {
  std::ifstream In(P);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

} // namespace

TEST(Pipeline, CarriedSelfEdgeForcesSequentialStage) {
  ir::AnalyzedProgram AP = ir::analyzeSource("symbolic n;\n"
                                             "for i := 2 to n do\n"
                                             "  a(i) := a(i-1) + 1;\n"
                                             "  b(i) := a(i) * 2;\n"
                                             "endfor\n");
  ASSERT_TRUE(AP.ok());
  analysis::AnalysisResult R = analysis::analyzeProgram(AP);
  Pdg G = buildPdg(AP, R, AP.Loops[0].get());
  // The recurrence is a carried self-edge on statement 1.
  bool SelfCarried = false;
  for (const PdgEdge &E : G.Edges)
    SelfCarried |= E.Src == E.Dst && E.LoopCarried && G.planningEdge(E);
  EXPECT_TRUE(SelfCarried);

  PipelinePlan Plan = planPipeline(AP, G);
  ASSERT_TRUE(Plan.valid());
  std::map<unsigned, unsigned> Stage = stageOf(Plan);
  EXPECT_FALSE(Plan.Stages[Stage.at(1)].Parallel)
      << "recurrence stage cannot be parallel";
  // The consumer b(i) has no carried edge at all: its stage is parallel.
  EXPECT_TRUE(Plan.Stages[Stage.at(2)].Parallel);
  // Producer before consumer.
  EXPECT_LT(Stage.at(1), Stage.at(2));
}

TEST(Pipeline, EveryStatementInExactlyOneScc) {
  ir::AnalyzedProgram AP =
      ir::analyzeSource("symbolic n;\n"
                        "for i := 1 to n do\n"
                        "  s(0) := s(0) + a(i);\n"
                        "  t(0) := a(i-1) + a(i+1);\n"
                        "  b(i) := t(0) * t(0);\n"
                        "  d(0) := d(0) + b(i);\n"
                        "endfor\n");
  ASSERT_TRUE(AP.ok());
  analysis::AnalysisResult R = analysis::analyzeProgram(AP);
  std::vector<PipelineFacts> Facts = analyzePipelines(AP, R);
  ASSERT_EQ(Facts.size(), 1u);
  EXPECT_EQ(Facts[0].Statements, 4u);
  EXPECT_EQ(Facts[0].Sccs, 4u);
  EXPECT_GE(checkInvariants(AP, R), 1u);
}

TEST(Pipeline, KilledDependencesAbsentFromPlanningGraph) {
  // t is accumulated and overwritten each iteration: the carried flow
  // out of statement 2's write into the next iteration's read is killed
  // by statement 1's fresh write ('k'), and the PDG must carry that edge
  // as Dead -- present for the ablation, never planned over.
  ir::AnalyzedProgram AP =
      ir::analyzeSource("symbolic n;\n"
                        "for i := 1 to n do\n"
                        "  t(0) := a(i);\n"
                        "  t(0) := t(0) + b(i);\n"
                        "  c(i) := t(0);\n"
                        "endfor\n");
  ASSERT_TRUE(AP.ok());
  analysis::AnalysisResult R = analysis::analyzeProgram(AP);
  Pdg G = buildPdg(AP, R, AP.Loops[0].get());
  bool SawKilledCarriedFlow = false;
  for (const PdgEdge &E : G.Edges) {
    if (E.Kind == deps::DepKind::Flow && E.LoopCarried && E.Dead) {
      SawKilledCarriedFlow = true;
      EXPECT_EQ(E.DeadReason, 'k');
      EXPECT_FALSE(G.planningEdge(E));
    }
    // The surviving carried planning edges are all storage self-traffic
    // on t (output, plus any anti not licensed for removal) -- no live
    // carried FLOW crosses iterations.
    if (G.planningEdge(E) && E.LoopCarried) {
      EXPECT_NE(E.Kind, deps::DepKind::Flow)
          << "live carried flow survived on " << E.Array << " ("
          << G.StmtLabels[E.Src] << "->" << G.StmtLabels[E.Dst] << ")";
    }
  }
  EXPECT_TRUE(SawKilledCarriedFlow) << "kill analysis marked nothing dead";
}

TEST(Pipeline, PrivatizableAntiEdgesAreRemovable) {
  // The motivating pattern: t written then read within each iteration.
  // Refinement narrows the flow to loop-independent, and the carried
  // anti edges on t (read iter i -> write iter i+1) become Removable via
  // privatization; the live carried planning traffic that remains is the
  // output self-edge on t's write.
  ir::AnalyzedProgram AP =
      ir::analyzeSource("symbolic n;\n"
                        "for i := 1 to n do\n"
                        "  t(0) := a(i-1) + a(i+1);\n"
                        "  b(i) := t(0) * t(0);\n"
                        "endfor\n");
  ASSERT_TRUE(AP.ok());
  analysis::AnalysisResult R = analysis::analyzeProgram(AP);
  Pdg G = buildPdg(AP, R, AP.Loops[0].get());
  bool SawRemovableAnti = false;
  for (const PdgEdge &E : G.Edges) {
    if (E.Kind == deps::DepKind::Anti && E.LoopCarried) {
      EXPECT_TRUE(E.Removable) << "carried anti on " << E.Array;
      SawRemovableAnti = true;
    }
    if (G.planningEdge(E) && E.LoopCarried) {
      EXPECT_EQ(E.Kind, deps::DepKind::Output)
          << "unexpected live carried edge on " << E.Array;
    }
  }
  EXPECT_TRUE(SawRemovableAnti);
  EXPECT_EQ(G.PrivatizedArrays, std::vector<std::string>{"t"});
}

TEST(Pipeline, AblationWithDeadEdgesIsCoarser) {
  // The four-statement showcase: with Section 4 the partition reaches
  // four stages with a parallel consumer; with dead edges restored the
  // graph collapses into two serial stages.
  ir::AnalyzedProgram AP =
      ir::analyzeSource("symbolic n;\n"
                        "for i := 1 to n do\n"
                        "  s(0) := s(0) + a(i);\n"
                        "  t(0) := a(i-1) + a(i+1);\n"
                        "  b(i) := t(0) * t(0);\n"
                        "  d(0) := d(0) + b(i);\n"
                        "endfor\n");
  ASSERT_TRUE(AP.ok());
  analysis::AnalysisResult R = analysis::analyzeProgram(AP);

  std::vector<PipelineFacts> WithKills = analyzePipelines(AP, R);
  ASSERT_EQ(WithKills.size(), 1u);
  ASSERT_EQ(AP.Loops.size(), 1u);
  PipelinePlan Without =
      planPipeline(AP, withoutKills(buildPdg(AP, R, AP.Loops[0].get())));

  EXPECT_GE(WithKills[0].Plan.Stages.size(), 3u);
  EXPECT_TRUE(WithKills[0].Plan.hasParallelStage());
  EXPECT_EQ(WithKills[0].Plan.PrivatizedArrays,
            std::vector<std::string>{"t"});
  EXPECT_FALSE(WithKills[0].Plan.EnablingKills.empty());

  EXPECT_LT(Without.Stages.size(), WithKills[0].Plan.Stages.size());
  EXPECT_FALSE(Without.hasParallelStage());

  // The same collapse when the Section 4 cover analysis itself is off:
  // the carried t splits stay live and privatization is never licensed.
  analysis::DriverOptions NoCover;
  NoCover.Cover = false;
  NoCover.Kill = false;
  analysis::AnalysisResult RNC = analysis::analyzeProgram(AP, NoCover);
  std::vector<PipelineFacts> Ablated = analyzePipelines(AP, RNC);
  ASSERT_EQ(Ablated.size(), 1u);
  EXPECT_FALSE(Ablated[0].Plan.hasParallelStage());
  EXPECT_LT(Ablated[0].Plan.Stages.size(),
            WithKills[0].Plan.Stages.size());
  checkInvariants(AP, RNC);
}

TEST(Pipeline, ReportIsDeterministicAndNamesEnablers) {
  ir::AnalyzedProgram AP =
      ir::analyzeSource("symbolic n;\n"
                        "for i := 1 to n do\n"
                        "  s(0) := s(0) + a(i);\n"
                        "  t(0) := a(i-1) + a(i+1);\n"
                        "  b(i) := t(0) * t(0);\n"
                        "  d(0) := d(0) + b(i);\n"
                        "endfor\n");
  ASSERT_TRUE(AP.ok());
  analysis::AnalysisResult R = analysis::analyzeProgram(AP);
  std::vector<PipelineFacts> Facts = analyzePipelines(AP, R);
  std::vector<PipelineFacts> Again = analyzePipelines(AP, R);
  ASSERT_EQ(Facts.size(), 1u);
  ASSERT_EQ(Again.size(), 1u);
  const PipelinePlan &Plan = Facts[0].Plan;
  const PipelinePlan &Replan = Again[0].Plan;
  ASSERT_EQ(Plan.Stages.size(), 4u);
  ASSERT_EQ(Replan.Stages.size(), 4u);
  for (std::size_t I = 0; I != Plan.Stages.size(); ++I) {
    EXPECT_EQ(Plan.Stages[I].StmtLabels, Replan.Stages[I].StmtLabels);
    EXPECT_EQ(Plan.Stages[I].Parallel, Replan.Stages[I].Parallel);
  }
  EXPECT_TRUE(std::any_of(Plan.Stages.begin(), Plan.Stages.end(),
                          [](const PipelineStage &S) {
                            return S.Parallel &&
                                   S.StmtLabels == std::vector<unsigned>{3};
                          }))
      << "parallel consumer stage {3} missing";
  EXPECT_EQ(Plan.PrivatizedArrays, std::vector<std::string>{"t"});
  EXPECT_EQ(Replan.PrivatizedArrays, Plan.PrivatizedArrays);
  EXPECT_TRUE(std::any_of(
      Plan.EnablingKills.begin(), Plan.EnablingKills.end(),
      [](const EnablingKill &K) { return K.Reason == 'p'; }))
      << "no enabling kill names privatization";
}

TEST(Pipeline, PipelineFourExampleMatchesShippedExpectations) {
  fs::path File = fs::path(OMEGA_EXAMPLES_DIR) / "pipeline4.tiny";
  ASSERT_TRUE(fs::is_regular_file(File)) << "missing " << File;
  ir::AnalyzedProgram AP = ir::analyzeSource(readFile(File));
  ASSERT_TRUE(AP.ok());
  analysis::AnalysisResult R = analysis::analyzeProgram(AP);
  std::vector<PipelineFacts> Facts = analyzePipelines(AP, R);
  ASSERT_EQ(Facts.size(), 1u);
  const PipelinePlan &Plan = Facts[0].Plan;
  ASSERT_TRUE(Plan.valid());
  EXPECT_EQ(Plan.Stages.size(), 4u);
  EXPECT_TRUE(Plan.hasParallelStage());
  EXPECT_DOUBLE_EQ(Plan.EstimatedSpeedup, 4.0);
  checkInvariants(AP, R);
}

TEST(Pipeline, InvariantsHoldAcrossExamplePrograms) {
  fs::path Dir = fs::path(OMEGA_EXAMPLES_DIR);
  ASSERT_TRUE(fs::is_directory(Dir)) << "missing " << Dir;
  unsigned Programs = 0;
  unsigned ValidPlans = 0;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir)) {
    if (!E.is_regular_file() || E.path().extension() != ".tiny")
      continue;
    SCOPED_TRACE(E.path().filename().string());
    ir::AnalyzedProgram AP = ir::analyzeSource(readFile(E.path()));
    ASSERT_TRUE(AP.ok());
    analysis::AnalysisResult R = analysis::analyzeProgram(AP);
    ++Programs;
    ValidPlans += checkInvariants(AP, R);
    checkInvariants(AP, R, /*WithoutKills=*/true);
  }
  EXPECT_GT(Programs, 0u);
  EXPECT_GT(ValidPlans, 0u) << "no example produced a pipeline at all";
}
