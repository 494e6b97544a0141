//===- transform/Pipeline.cpp ---------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "transform/Pipeline.h"

#include <algorithm>
#include <map>
#include <set>

using namespace omega;
using namespace omega::transform;

namespace {

/// Estimated iterations of one loop: exact for constant rectangular
/// bounds, a default of 10 for symbolic ones.
uint64_t tripEstimate(const ir::LoopInfo &L) {
  if (L.Lower.size() == 1 && L.Upper.size() == 1 &&
      L.Lower[0].isConstant() && L.Upper[0].isConstant()) {
    int64_t Lo = L.Lower[0].getConstant();
    int64_t Hi = L.Upper[0].getConstant();
    int64_t Stride = L.Stride > 0 ? L.Stride : 1;
    if (Hi < Lo)
      return 1; // zero-trip loops still weigh their body once
    return static_cast<uint64_t>((Hi - Lo) / Stride + 1);
  }
  return 10;
}

/// Statement weight: the product of the trip estimates of the loops
/// nested inside the partitioned loop around the statement (1 when the
/// statement sits directly in the loop body).
uint64_t stmtWeight(const ir::AnalyzedProgram &AP, const ir::LoopInfo *L,
                    unsigned Label) {
  for (const ir::Access &A : AP.Accesses) {
    if (A.StmtLabel != Label)
      continue;
    auto It = std::find(A.Loops.begin(), A.Loops.end(), L);
    if (It == A.Loops.end())
      continue;
    uint64_t W = 1;
    for (++It; It != A.Loops.end(); ++It)
      W *= tripEstimate(**It);
    return W == 0 ? 1 : W;
  }
  return 1;
}

/// Replicas assumed for the parallel stage in the cost model.
constexpr unsigned PipelineReplicas = 4;

/// One replica's share of a parallel stage of weight \p W (rounded up,
/// at least 1).
uint64_t perReplica(uint64_t W) {
  return std::max<uint64_t>(1, (W + PipelineReplicas - 1) / PipelineReplicas);
}

struct Condensation {
  unsigned NumComps = 0;
  std::vector<unsigned> CompOf;               ///< node -> topo comp index
  std::vector<std::vector<unsigned>> Members; ///< comp -> nodes
  std::vector<std::vector<bool>> Reach; ///< Reach[A][B]: path A -> B, A != B
  std::vector<bool> Parallel;           ///< no internal loop-carried edge
  std::vector<uint64_t> Weight;
};

Condensation condense(const ir::AnalyzedProgram &AP, const Pdg &G) {
  unsigned N = G.StmtLabels.size();
  std::vector<std::vector<unsigned>> Adj(N);
  for (const PdgEdge &E : G.Edges)
    if (G.planningEdge(E))
      Adj[E.Src].push_back(E.Dst);

  SCCs SCC = stronglyConnectedComponents(Adj);
  Condensation C;
  C.NumComps = SCC.NumComps;
  C.CompOf = std::move(SCC.CompOf);
  C.Members.resize(C.NumComps);
  for (unsigned V = 0; V != N; ++V)
    C.Members[C.CompOf[V]].push_back(V);

  C.Parallel.assign(C.NumComps, true);
  for (const PdgEdge &E : G.Edges)
    if (G.planningEdge(E) && E.LoopCarried &&
        C.CompOf[E.Src] == C.CompOf[E.Dst])
      C.Parallel[C.CompOf[E.Src]] = false;

  C.Weight.assign(C.NumComps, 0);
  for (unsigned V = 0; V != N; ++V)
    C.Weight[C.CompOf[V]] += stmtWeight(AP, G.Loop, G.StmtLabels[V]);

  // Reachability over the comp DAG, walking topological order backwards:
  // Reach[A] = union over comp successors S of {S} + Reach[S].
  std::vector<std::set<unsigned>> Succs(C.NumComps);
  for (const PdgEdge &E : G.Edges)
    if (G.planningEdge(E) && C.CompOf[E.Src] != C.CompOf[E.Dst])
      Succs[C.CompOf[E.Src]].insert(C.CompOf[E.Dst]);
  C.Reach.assign(C.NumComps, std::vector<bool>(C.NumComps, false));
  for (unsigned A = C.NumComps; A-- > 0;)
    for (unsigned S : Succs[A]) {
      C.Reach[A][S] = true;
      for (unsigned B = 0; B != C.NumComps; ++B)
        if (C.Reach[S][B])
          C.Reach[A][B] = true;
    }
  return C;
}

/// Splits the topologically ordered comp list \p Comps into consecutive
/// stages whose weights approach \p Target, never exceeding
/// \p MaxNewStages stages. Any prefix of a topological order is closed
/// under the DAG's edges, so every cut point is legal.
std::vector<std::vector<unsigned>>
balanceSequential(const std::vector<unsigned> &Comps,
                  const std::vector<uint64_t> &Weight, uint64_t Target,
                  unsigned MaxNewStages) {
  std::vector<std::vector<unsigned>> Out;
  if (Comps.empty())
    return Out;
  Out.push_back(Comps);
  auto weightOf = [&](const std::vector<unsigned> &S) {
    uint64_t W = 0;
    for (unsigned Cmp : S)
      W += Weight[Cmp];
    return W;
  };
  bool Changed = true;
  while (Changed && Out.size() < MaxNewStages) {
    Changed = false;
    // Heaviest over-target stage with at least two comps.
    unsigned Best = Out.size();
    uint64_t BestW = Target;
    for (unsigned I = 0; I != Out.size(); ++I) {
      uint64_t W = weightOf(Out[I]);
      if (Out[I].size() >= 2 && W > BestW) {
        Best = I;
        BestW = W;
      }
    }
    if (Best == Out.size())
      break;
    // Cut at the prefix point minimizing the heavier half (earliest cut
    // on ties, for determinism).
    const std::vector<unsigned> &S = Out[Best];
    uint64_t Total = weightOf(S), Prefix = 0, BestMax = Total;
    unsigned Cut = 0;
    for (unsigned I = 0; I + 1 < S.size(); ++I) {
      Prefix += Weight[S[I]];
      uint64_t Max = std::max(Prefix, Total - Prefix);
      if (Max < BestMax) {
        BestMax = Max;
        Cut = I + 1;
      }
    }
    if (Cut == 0)
      break; // a single comp dominates: no cut improves the bottleneck
    std::vector<unsigned> Tail(S.begin() + Cut, S.end());
    Out[Best].resize(Cut);
    Out.insert(Out.begin() + Best + 1, std::move(Tail));
    Changed = true;
  }
  return Out;
}

} // namespace

PipelinePlan transform::planPipeline(const ir::AnalyzedProgram &AP,
                                     const Pdg &G) {
  PipelinePlan Plan;
  Plan.Loop = G.Loop;
  Plan.PrivatizedArrays = G.PrivatizedArrays;
  if (G.StmtLabels.empty())
    return Plan;

  Condensation C = condense(AP, G);
  Plan.Sccs = C.NumComps;
  for (uint64_t W : C.Weight)
    Plan.TotalWeight += W;

  // The stage skeleton as comp-index lists, in execution order.
  std::vector<std::vector<unsigned>> StageComps;
  int ParallelStageIdx = -1;

  // Pivot: the heaviest parallel SCC (smallest topo index on ties).
  unsigned Pivot = C.NumComps;
  for (unsigned Cmp = 0; Cmp != C.NumComps; ++Cmp)
    if (C.Parallel[Cmp] &&
        (Pivot == C.NumComps || C.Weight[Cmp] > C.Weight[Pivot]))
      Pivot = Cmp;

  if (Pivot == C.NumComps) {
    // No parallel SCC: fall back to a 2-stage balanced DSWP split.
    std::vector<unsigned> All(C.NumComps);
    for (unsigned Cmp = 0; Cmp != C.NumComps; ++Cmp)
      All[Cmp] = Cmp;
    StageComps = balanceSequential(All, C.Weight,
                                   std::max<uint64_t>(1, Plan.TotalWeight / 2),
                                   2);
  } else {
    // Grow the parallel stage: an antichain of mutually unreachable
    // parallel SCCs around the pivot (unreachable implies no edges, so
    // no loop-carried edge can join the stage).
    std::vector<unsigned> Stage{Pivot};
    for (unsigned Cmp = 0; Cmp != C.NumComps; ++Cmp) {
      if (Cmp == Pivot || !C.Parallel[Cmp])
        continue;
      bool Compatible = true;
      for (unsigned M : Stage)
        if (C.Reach[Cmp][M] || C.Reach[M][Cmp]) {
          Compatible = false;
          break;
        }
      if (Compatible)
        Stage.push_back(Cmp);
    }
    std::sort(Stage.begin(), Stage.end());
    std::set<unsigned> InStage(Stage.begin(), Stage.end());

    // pivot(): every other SCC is before (reaches the stage), after
    // (reached from it), or flexible. Flexible SCCs join the before side
    // when nothing must follow the parallel stage, the after side
    // otherwise.
    std::vector<unsigned> Before, After, Flexible;
    for (unsigned Cmp = 0; Cmp != C.NumComps; ++Cmp) {
      if (InStage.count(Cmp))
        continue;
      bool ReachesStage = false, ReachedFromStage = false;
      for (unsigned M : Stage) {
        ReachesStage |= C.Reach[Cmp][M];
        ReachedFromStage |= C.Reach[M][Cmp];
      }
      if (ReachesStage)
        Before.push_back(Cmp);
      else if (ReachedFromStage)
        After.push_back(Cmp);
      else
        Flexible.push_back(Cmp);
    }
    std::vector<unsigned> &Side = After.empty() ? Before : After;
    Side.insert(Side.end(), Flexible.begin(), Flexible.end());
    std::sort(Before.begin(), Before.end());
    std::sort(After.begin(), After.end());

    uint64_t ParallelWeight = 0;
    for (unsigned M : Stage)
      ParallelWeight += C.Weight[M];
    uint64_t Target = perReplica(ParallelWeight);

    std::vector<std::vector<unsigned>> BeforeStages =
        balanceSequential(Before, C.Weight, Target, MaxPipelineStages);
    std::vector<std::vector<unsigned>> AfterStages = balanceSequential(
        After, C.Weight, Target,
        MaxPipelineStages > BeforeStages.size() + 1
            ? MaxPipelineStages - BeforeStages.size() - 1
            : 1);
    for (std::vector<unsigned> &S : BeforeStages)
      StageComps.push_back(std::move(S));
    ParallelStageIdx = StageComps.size();
    StageComps.push_back(Stage);
    for (std::vector<unsigned> &S : AfterStages)
      StageComps.push_back(std::move(S));
  }

  // Materialize stages: labels ascending, weights summed.
  for (unsigned I = 0; I != StageComps.size(); ++I) {
    PipelineStage S;
    S.Parallel = static_cast<int>(I) == ParallelStageIdx;
    for (unsigned Cmp : StageComps[I]) {
      S.Weight += C.Weight[Cmp];
      for (unsigned V : C.Members[Cmp])
        S.StmtLabels.push_back(G.StmtLabels[V]);
    }
    std::sort(S.StmtLabels.begin(), S.StmtLabels.end());
    Plan.Stages.push_back(std::move(S));
  }

  // Bottleneck and speedup estimate.
  uint64_t Bottleneck = 1;
  for (const PipelineStage &S : Plan.Stages)
    Bottleneck =
        std::max(Bottleneck, S.Parallel ? perReplica(S.Weight) : S.Weight);
  Plan.EstimatedSpeedup =
      static_cast<double>(std::max<uint64_t>(1, Plan.TotalWeight)) /
      static_cast<double>(Bottleneck);

  // Which kills/removals enabled the parallel stage: a dead or removable
  // edge is enabling when restoring it would serialize a parallel stage
  // (an internal loop-carried edge) or merge a parallel-stage SCC into a
  // larger cycle.
  if (Plan.hasParallelStage()) {
    std::set<unsigned> ParallelLabels;
    for (const PipelineStage &S : Plan.Stages)
      if (S.Parallel)
        ParallelLabels.insert(S.StmtLabels.begin(), S.StmtLabels.end());
    unsigned N = G.StmtLabels.size();
    std::vector<std::vector<unsigned>> LiveAdj(N);
    for (const PdgEdge &E : G.Edges)
      if (G.planningEdge(E))
        LiveAdj[E.Src].push_back(E.Dst);
    for (const PdgEdge &E : G.Edges) {
      if (G.planningEdge(E))
        continue;
      bool SrcPar = ParallelLabels.count(G.StmtLabels[E.Src]) != 0;
      bool DstPar = ParallelLabels.count(G.StmtLabels[E.Dst]) != 0;
      bool Enabling = E.LoopCarried && SrcPar && DstPar;
      if (!Enabling && (SrcPar || DstPar)) {
        // Would the edge merge a parallel statement into a larger SCC?
        std::vector<std::vector<unsigned>> Adj = LiveAdj;
        Adj[E.Src].push_back(E.Dst);
        std::vector<unsigned> CompOf =
            stronglyConnectedComponents(Adj).CompOf;
        for (unsigned V = 0; V != N && !Enabling; ++V) {
          if (!ParallelLabels.count(G.StmtLabels[V]))
            continue;
          for (unsigned W = 0; W != N; ++W)
            if (W != V && CompOf[W] == CompOf[V] &&
                C.CompOf[W] != C.CompOf[V]) {
              Enabling = true;
              break;
            }
        }
      }
      if (Enabling) {
        EnablingKill K;
        K.SrcLabel = G.StmtLabels[E.Src];
        K.DstLabel = G.StmtLabels[E.Dst];
        K.Kind = E.Kind;
        K.Reason = E.Removable ? 'p' : (E.DeadReason ? E.DeadReason : 'k');
        bool Dup = false;
        for (const EnablingKill &Prev : Plan.EnablingKills)
          Dup = Dup || (Prev.SrcLabel == K.SrcLabel &&
                        Prev.DstLabel == K.DstLabel && Prev.Kind == K.Kind &&
                        Prev.Reason == K.Reason);
        if (!Dup)
          Plan.EnablingKills.push_back(K);
      }
    }
  }
  return Plan;
}

std::vector<PipelineFacts>
transform::analyzePipelines(const ir::AnalyzedProgram &AP,
                            const analysis::AnalysisResult &R) {
  std::vector<PipelineFacts> Out;
  for (const std::unique_ptr<ir::LoopInfo> &L : AP.Loops) {
    Pdg G = buildPdg(AP, R, L.get());
    PipelineFacts F;
    F.Loop = L.get();
    F.Statements = G.StmtLabels.size();
    F.Plan = planPipeline(AP, G);
    F.Sccs = F.Plan.Sccs;
    Out.push_back(std::move(F));
  }
  return Out;
}
