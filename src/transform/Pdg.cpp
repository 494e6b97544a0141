//===- transform/Pdg.cpp --------------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "transform/Pdg.h"

#include <algorithm>
#include <map>
#include <set>

using namespace omega;
using namespace omega::transform;
using omega::deps::Dependence;
using omega::deps::DepKind;
using omega::deps::DepSplit;

int transform::commonLoopDepth(const Dependence &D, const ir::LoopInfo *L) {
  unsigned Common =
      ir::AnalyzedProgram::numCommonLoops(*D.Src, *D.Dst);
  for (unsigned K = 0; K != Common; ++K)
    if (D.Src->Loops[K] == L)
      return static_cast<int>(K);
  return -1;
}

namespace {

/// Where a split runs relative to a loop L at depth \p Depth
/// (commonLoopDepth of its dependence).
enum class SplitPlace {
  Outside, ///< L does not enclose both endpoints, or a loop outside L
           ///< carries the split: it orders whole L-instances
  Carried, ///< carried by L itself
  Within,  ///< stays within one iteration of L
};

SplitPlace placeOf(const DepSplit &S, int Depth) {
  if (Depth < 0 || (S.Level >= 1 && S.Level <= static_cast<unsigned>(Depth)))
    return SplitPlace::Outside;
  return S.Level == static_cast<unsigned>(Depth) + 1 ? SplitPlace::Carried
                                                     : SplitPlace::Within;
}

/// Classifies the splits of one dependence relative to loop L and emits
/// at most one edge per (LoopCarried, Dead) class -- several splits of
/// the same class would duplicate an identical edge.
void edgesOf(const Dependence &D, const ir::LoopInfo *L,
             const std::map<unsigned, unsigned> &NodeOf,
             std::vector<PdgEdge> &Out) {
  auto SrcIt = NodeOf.find(D.Src->StmtLabel);
  auto DstIt = NodeOf.find(D.Dst->StmtLabel);
  if (SrcIt == NodeOf.end() || DstIt == NodeOf.end())
    return;
  int Depth = commonLoopDepth(D, L);
  // (LoopCarried, Dead) -> DeadReason of the first such split.
  bool Seen[2][2] = {{false, false}, {false, false}};
  char Reason[2][2] = {{0, 0}, {0, 0}};
  for (const DepSplit &S : D.Splits) {
    SplitPlace Place = placeOf(S, Depth);
    // Splits carried outside L order whole L-instances; they do not
    // constrain the partition of L's body.
    if (Place == SplitPlace::Outside)
      continue;
    bool Carried = Place == SplitPlace::Carried;
    if (!Seen[Carried][S.Dead]) {
      Seen[Carried][S.Dead] = true;
      Reason[Carried][S.Dead] = S.Dead ? S.DeadReason : static_cast<char>(0);
    }
  }
  for (int Carried = 0; Carried != 2; ++Carried)
    for (int Dead = 0; Dead != 2; ++Dead) {
      if (!Seen[Carried][Dead])
        continue;
      PdgEdge E;
      E.Src = SrcIt->second;
      E.Dst = DstIt->second;
      E.Kind = D.Kind;
      E.LoopCarried = Carried != 0;
      E.Dead = Dead != 0;
      E.DeadReason = Reason[Carried][Dead];
      E.Array = D.Src->Array;
      E.Dep = &D;
      Out.push_back(std::move(E));
    }
}

} // namespace

bool transform::isPrivatizable(const ir::AnalyzedProgram &AP,
                               const analysis::AnalysisResult &R,
                               const std::string &Array,
                               const ir::LoopInfo *L) {
  for (const ir::Access &B : AP.Accesses) {
    if (B.IsWrite || B.Array != Array)
      continue;
    if (std::find(B.Loops.begin(), B.Loops.end(), L) == B.Loops.end())
      continue; // read not inside L

    // Every read inside L must get its value within the current L
    // iteration. Two requirements:
    //  * no live flow dependence whose source runs in a different
    //    iteration of L (carried at or above L, or from outside L), and
    //  * some write covers the read loop-independently (every element
    //    the read touches is written first in the same iteration);
    //    without a cover parts of the read are upward-exposed.
    bool Covered = false;
    for (const Dependence &D : R.Flow) {
      if (D.Dst != &B)
        continue;
      int Depth = commonLoopDepth(D, L);
      for (const DepSplit &S : D.Splits)
        if (!S.Dead && placeOf(S, Depth) != SplitPlace::Within)
          return false;
      Covered |= D.Covers && D.CoverLoopIndependent;
    }
    if (!Covered)
      return false; // (partially) upward-exposed read: needs copy-in
  }
  return true;
}

SCCs transform::stronglyConnectedComponents(
    const std::vector<std::vector<unsigned>> &Adj) {
  std::vector<int> Index(Adj.size(), -1), Low(Adj.size(), 0);
  std::vector<int> Comp(Adj.size(), -1);
  std::vector<bool> OnStack(Adj.size(), false);
  std::vector<unsigned> Stack;
  int NextIndex = 0, NextComp = 0;
  for (unsigned Root = 0; Root != Adj.size(); ++Root) {
    if (Index[Root] >= 0)
      continue;
    // Explicit DFS stack: (node, next child position).
    std::vector<std::pair<unsigned, unsigned>> Work{{Root, 0}};
    while (!Work.empty()) {
      auto &[V, Child] = Work.back();
      if (Child == 0) {
        Index[V] = Low[V] = NextIndex++;
        Stack.push_back(V);
        OnStack[V] = true;
      }
      if (Child < Adj[V].size()) {
        unsigned W = Adj[V][Child++];
        if (Index[W] < 0)
          Work.push_back({W, 0});
        else if (OnStack[W])
          Low[V] = std::min(Low[V], Index[W]);
        continue;
      }
      if (Low[V] == Index[V]) {
        while (true) {
          unsigned W = Stack.back();
          Stack.pop_back();
          OnStack[W] = false;
          Comp[W] = NextComp;
          if (W == V)
            break;
        }
        ++NextComp;
      }
      unsigned Done = V;
      Work.pop_back();
      if (!Work.empty())
        Low[Work.back().first] = std::min(Low[Work.back().first], Low[Done]);
    }
  }
  // Tarjan completes components in reverse topological order.
  SCCs Out;
  Out.NumComps = static_cast<unsigned>(NextComp);
  Out.CompOf.resize(Adj.size());
  for (unsigned V = 0; V != Adj.size(); ++V)
    Out.CompOf[V] = static_cast<unsigned>(NextComp - 1 - Comp[V]);
  return Out;
}

Pdg transform::buildPdg(const ir::AnalyzedProgram &AP,
                        const analysis::AnalysisResult &R,
                        const ir::LoopInfo *L) {
  Pdg G;
  G.Loop = L;

  // Nodes: statements (by label, program order) whose nests include L.
  std::map<unsigned, unsigned> NodeOf;
  for (const ir::Access &A : AP.Accesses) {
    if (std::find(A.Loops.begin(), A.Loops.end(), L) == A.Loops.end())
      continue;
    if (!NodeOf.count(A.StmtLabel)) {
      NodeOf[A.StmtLabel] = G.StmtLabels.size();
      G.StmtLabels.push_back(A.StmtLabel);
    }
  }

  for (const std::vector<Dependence> *Deps : {&R.Flow, &R.Anti, &R.Output})
    for (const Dependence &D : *Deps)
      edgesOf(D, L, NodeOf, G.Edges);

  // Loop-carried anti dependences are storage artifacts: when every read
  // of the array inside L is satisfied within its own iteration (the
  // kill-powered privatizability test), per-iteration renaming removes
  // them. Decide once per array that actually has such an edge.
  std::map<std::string, bool> Privatizable;
  for (PdgEdge &E : G.Edges) {
    if (E.Kind != DepKind::Anti || !E.LoopCarried || E.Dead)
      continue;
    auto It = Privatizable.find(E.Array);
    if (It == Privatizable.end())
      It = Privatizable
               .emplace(E.Array, isPrivatizable(AP, R, E.Array, L))
               .first;
    E.Removable = It->second;
  }
  std::set<std::string> Names;
  for (const PdgEdge &E : G.Edges)
    if (E.Removable)
      Names.insert(E.Array);
  G.PrivatizedArrays.assign(Names.begin(), Names.end());
  return G;
}

LoopFacts transform::loopFacts(const Pdg &G) {
  LoopFacts F;
  F.Loop = G.Loop;
  bool CarriesFlow = false;
  for (const PdgEdge &E : G.Edges) {
    if (!E.LoopCarried || E.Dead)
      continue;
    F.Blockers.push_back(E.Dep);
    CarriesFlow |= E.Kind == DepKind::Flow;
  }
  F.Parallelizable = F.Blockers.empty();
  F.FlowParallelizable = !CarriesFlow;
  return F;
}

std::vector<LoopFacts> transform::analyzeLoops(
    const ir::AnalyzedProgram &AP, const analysis::AnalysisResult &R) {
  std::vector<LoopFacts> Out;
  for (const std::unique_ptr<ir::LoopInfo> &L : AP.Loops)
    Out.push_back(loopFacts(buildPdg(AP, R, L.get())));
  return Out;
}

std::vector<DistributionGroup> transform::distributeLoop(const Pdg &G) {
  unsigned N = G.StmtLabels.size();
  std::vector<std::vector<unsigned>> Adj(N);
  for (const PdgEdge &E : G.Edges)
    if (!E.Dead)
      Adj[E.Src].push_back(E.Dst);
  SCCs SCC = stronglyConnectedComponents(Adj);

  // Groups in topological order (dependence sources first), statements in
  // program order inside each group.
  std::vector<DistributionGroup> Groups(SCC.NumComps);
  for (unsigned V = 0; V != N; ++V)
    Groups[SCC.CompOf[V]].StmtLabels.push_back(G.StmtLabels[V]);
  // Any edge inside a component marks it cyclic (including self edges).
  for (unsigned V = 0; V != N; ++V)
    for (unsigned W : Adj[V])
      if (SCC.CompOf[V] == SCC.CompOf[W])
        Groups[SCC.CompOf[V]].Cyclic = true;
  for (DistributionGroup &Grp : Groups)
    std::sort(Grp.StmtLabels.begin(), Grp.StmtLabels.end());
  return Groups;
}
