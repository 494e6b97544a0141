//===- oracle/ScheduleOracle.cpp ------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "oracle/ScheduleOracle.h"

#include "engine/DependenceEngine.h"
#include "transform/Apply.h"

#include <set>

using namespace omega;
using namespace omega::oracle;

std::map<std::string, int64_t>
oracle::scheduleSymbols(const ir::AnalyzedProgram &AP,
                        const std::map<std::string, int64_t> &Base) {
  std::map<std::string, int64_t> Symbols = Base;
  for (const std::string &S : AP.Source.SymbolicConsts) {
    if (Symbols.count(S))
      continue;
    Symbols[S] = S == "n" ? 5 : S == "m" ? 4 : 3;
  }
  return Symbols;
}

namespace {

using FinalState = std::map<std::string, std::map<std::vector<int64_t>, int64_t>>;

std::string renderElement(const std::string &Array,
                          const std::vector<int64_t> &Loc) {
  std::string Out = Array + "(";
  for (unsigned I = 0; I != Loc.size(); ++I) {
    if (I)
      Out += ",";
    Out += std::to_string(Loc[I]);
  }
  return Out + ")";
}

/// First disagreement between the two final states, or "" when equal.
std::string diffStates(const FinalState &Base, const FinalState &Staged) {
  std::set<std::string> Arrays;
  for (const auto &KV : Base)
    Arrays.insert(KV.first);
  for (const auto &KV : Staged)
    Arrays.insert(KV.first);
  for (const std::string &A : Arrays) {
    auto BIt = Base.find(A);
    auto SIt = Staged.find(A);
    if (BIt == Base.end())
      return "array " + A + " written only by the staged schedule";
    if (SIt == Staged.end())
      return "array " + A + " never written by the staged schedule";
    for (const auto &KV : BIt->second) {
      auto Elt = SIt->second.find(KV.first);
      if (Elt == SIt->second.end())
        return renderElement(A, KV.first) + " never written by the staged "
                                            "schedule";
      if (Elt->second != KV.second)
        return renderElement(A, KV.first) + " = " +
               std::to_string(KV.second) + " originally but " +
               std::to_string(Elt->second) + " staged";
    }
    for (const auto &KV : SIt->second)
      if (!BIt->second.count(KV.first))
        return renderElement(A, KV.first) + " written only by the staged "
                                            "schedule";
  }
  return "";
}

engine::AnalysisResult runFullEngine(const ir::AnalyzedProgram &AP) {
  engine::DependenceEngine Engine;
  return Engine.analyze(AP);
}

} // namespace

bool oracle::checkPlanEquivalence(const ir::AnalyzedProgram &AP,
                                  const transform::PipelinePlan &Plan,
                                  const TraceOracleOptions &Opts,
                                  std::vector<std::string> &Mismatches) {
  ir::ExecConfig Cfg;
  Cfg.Symbols = scheduleSymbols(AP, Opts.Symbols);
  Cfg.MaxSteps = Opts.MaxSteps;
  ir::ExecResult Base = ir::interpret(AP.Source, Cfg);
  if (Base.Failed || Base.Truncated)
    return false; // nothing trustworthy to compare against

  std::string LoopName =
      Plan.Loop ? Plan.Loop->SourceVar : std::string("?");
  ir::Program Staged = AP.Source;
  transform::ApplyResult AR = transform::applyPipeline(Staged, Plan);
  if (AR != transform::ApplyResult::Applied) {
    Mismatches.push_back("pipeline plan for loop " + LoopName +
                         " failed to apply: " +
                         transform::applyResultName(AR));
    return true;
  }

  // The staged program re-runs loop headers per stage and duplicates
  // privatized writes; give it headroom so a budget artifact is never
  // mistaken for a semantic divergence.
  ir::ExecConfig StagedCfg = Cfg;
  StagedCfg.MaxSteps = Cfg.MaxSteps * 4;
  ir::ExecResult After = ir::interpret(Staged, StagedCfg);
  if (After.Failed) {
    Mismatches.push_back("staged schedule for loop " + LoopName +
                         " failed to execute: " + After.Error);
    return true;
  }
  if (After.Truncated)
    return false;

  FinalState Masked;
  for (const auto &KV : After.FinalState)
    if (!transform::isPipelineTempArray(KV.first))
      Masked.insert(KV);

  std::string Diff = diffStates(Base.FinalState, Masked);
  if (!Diff.empty())
    Mismatches.push_back("staged schedule for loop " + LoopName + " (" +
                         std::to_string(Plan.Stages.size()) +
                         " stages) diverges: " + Diff);
  return true;
}

ScheduleReport
oracle::checkPipelineSchedules(const std::string &Source,
                               const TraceOracleOptions &Opts) {
  ScheduleReport Rep;
  ir::AnalyzedProgram AP = ir::analyzeSource(Source);
  if (!AP.ok())
    return Rep; // rejected program: vacuously passes

  engine::AnalysisResult R = runFullEngine(AP);
  std::vector<transform::PipelineFacts> Facts =
      transform::analyzePipelines(AP, R);
  Rep.LoopsConsidered = Facts.size();
  for (const transform::PipelineFacts &F : Facts) {
    if (!F.Plan.valid())
      continue;
    if (checkPlanEquivalence(AP, F.Plan, Opts, Rep.Mismatches)) {
      ++Rep.PlansChecked;
      if (F.Plan.hasParallelStage())
        ++Rep.ParallelPlans;
    }
  }
  return Rep;
}

bool oracle::injectPipelineBug(const std::string &Source,
                               const TraceOracleOptions &Opts,
                               std::vector<std::string> &Mismatches) {
  ir::AnalyzedProgram AP = ir::analyzeSource(Source);
  if (!AP.ok())
    return false;

  engine::AnalysisResult R = runFullEngine(AP);
  for (const std::unique_ptr<ir::LoopInfo> &L : AP.Loops) {
    transform::Pdg G = transform::buildPdg(AP, R, L.get());
    for (unsigned I = 0; I != G.Edges.size(); ++I) {
      const transform::PdgEdge &E = G.Edges[I];
      if (!E.LoopCarried || !G.planningEdge(E))
        continue;
      // Delete this one carried edge -- the unsound kill under test --
      // and see whether the planner now proposes a schedule the
      // interpreter refutes.
      transform::Pdg Buggy = G;
      Buggy.Edges[I].Dead = true;
      Buggy.Edges[I].DeadReason = 'b';
      transform::PipelinePlan Plan = transform::planPipeline(AP, Buggy);
      if (!Plan.valid())
        continue;
      std::vector<std::string> Local;
      if (checkPlanEquivalence(AP, Plan, Opts, Local) && !Local.empty()) {
        for (std::string &M : Local)
          Mismatches.push_back("injected unsound kill " +
                               std::to_string(G.StmtLabels[E.Src]) + "->" +
                               std::to_string(G.StmtLabels[E.Dst]) + ": " +
                               M);
        return true;
      }
    }
  }
  return false;
}
