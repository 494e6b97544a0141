//===- analysis/Transforms.cpp --------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Transforms.h"

#include <algorithm>

using namespace omega;
using namespace omega::analysis;
using omega::deps::Dependence;
using omega::deps::DepSplit;

int analysis::commonLoopDepth(const Dependence &D, const ir::LoopInfo *L) {
  unsigned Common =
      ir::AnalyzedProgram::numCommonLoops(*D.Src, *D.Dst);
  for (unsigned K = 0; K != Common; ++K)
    if (D.Src->Loops[K] == L)
      return static_cast<int>(K);
  return -1;
}

namespace {

/// Does some live split of \p D run across iterations of \p L (i.e. carry
/// at L's level)? CountDead additionally reports whether a dead split
/// would have carried.
bool carriedBy(const Dependence &D, const ir::LoopInfo *L, bool &DeadWould) {
  int Depth = commonLoopDepth(D, L);
  if (Depth < 0)
    return false;
  unsigned Level = static_cast<unsigned>(Depth) + 1;
  bool Live = false;
  for (const DepSplit &S : D.Splits) {
    if (S.Level != Level)
      continue;
    if (S.Dead)
      DeadWould = true;
    else
      Live = true;
  }
  return Live;
}

void scanKind(const std::vector<Dependence> &Deps, const ir::LoopInfo *L,
              LoopFacts &Facts, bool &DeadWouldCarry) {
  for (const Dependence &D : Deps) {
    bool DeadWould = false;
    if (carriedBy(D, L, DeadWould))
      Facts.Blockers.push_back(&D);
    DeadWouldCarry |= DeadWould;
  }
}

} // namespace

std::vector<LoopFacts> analysis::analyzeLoops(const ir::AnalyzedProgram &AP,
                                              const AnalysisResult &R) {
  std::vector<LoopFacts> Out;
  for (const std::unique_ptr<ir::LoopInfo> &L : AP.Loops) {
    LoopFacts Facts;
    Facts.Loop = L.get();
    bool DeadWouldCarry = false;
    scanKind(R.Flow, L.get(), Facts, DeadWouldCarry);
    Facts.FlowParallelizable = Facts.Blockers.empty();
    scanKind(R.Anti, L.get(), Facts, DeadWouldCarry);
    scanKind(R.Output, L.get(), Facts, DeadWouldCarry);
    Facts.Parallelizable = Facts.Blockers.empty();
    Facts.ParallelizableOnlyAfterKills =
        Facts.Parallelizable && DeadWouldCarry;
    Out.push_back(std::move(Facts));
  }
  return Out;
}

bool analysis::canInterchange(const AnalysisResult &R,
                              const ir::LoopInfo *Outer,
                              const ir::LoopInfo *Inner) {
  auto blocked = [&](const std::vector<Dependence> &Deps) {
    for (const Dependence &D : Deps) {
      int DO = commonLoopDepth(D, Outer);
      int DI = commonLoopDepth(D, Inner);
      if (DO < 0 || DI != DO + 1)
        continue; // the pair of loops does not enclose both endpoints
      for (const DepSplit &S : D.Splits) {
        if (S.Dead)
          continue;
        // Conservative: blocked when a (+, -) orientation is possible.
        const IntRange &A = S.Dir[DO].Range;
        const IntRange &B = S.Dir[DI].Range;
        bool OuterPlus = !A.Empty && (!A.HasMax || A.Max >= 1);
        bool InnerMinus = !B.Empty && (!B.HasMin || B.Min <= -1);
        if (OuterPlus && InnerMinus)
          return true;
      }
    }
    return false;
  };
  return !blocked(R.Flow) && !blocked(R.Anti) && !blocked(R.Output);
}

bool analysis::isPrivatizable(const ir::AnalyzedProgram &AP,
                              const AnalysisResult &R,
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
      for (const DepSplit &S : D.Splits) {
        if (S.Dead)
          continue;
        if (Depth < 0)
          return false; // value flows in from outside the loop
        if (S.Level >= 1 && S.Level <= static_cast<unsigned>(Depth) + 1)
          return false; // crosses iterations of L (or an outer loop)
      }
      Covered |= D.Covers && D.CoverLoopIndependent;
    }
    if (!Covered)
      return false; // (partially) upward-exposed read: needs copy-in
  }
  return true;
}

SCCs analysis::stronglyConnectedComponents(
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

std::vector<DistributionGroup>
analysis::distributeLoop(const ir::AnalyzedProgram &AP,
                         const AnalysisResult &R, const ir::LoopInfo *L) {
  // Statements (by label) whose access nests include L.
  std::vector<unsigned> Stmts;
  std::map<unsigned, unsigned> NodeOf; // label -> node index
  for (const ir::Access &A : AP.Accesses) {
    if (std::find(A.Loops.begin(), A.Loops.end(), L) == A.Loops.end())
      continue;
    if (!NodeOf.count(A.StmtLabel)) {
      NodeOf[A.StmtLabel] = Stmts.size();
      Stmts.push_back(A.StmtLabel);
    }
  }

  // Edges: live dependences between statements of L, restricted to
  // within-L behavior (carried by L or deeper, or loop-independent).
  std::vector<std::vector<unsigned>> Adj(Stmts.size());
  auto addEdges = [&](const std::vector<Dependence> &Deps) {
    for (const Dependence &D : Deps) {
      auto SrcIt = NodeOf.find(D.Src->StmtLabel);
      auto DstIt = NodeOf.find(D.Dst->StmtLabel);
      if (SrcIt == NodeOf.end() || DstIt == NodeOf.end())
        continue;
      int Depth = commonLoopDepth(D, L);
      if (Depth < 0)
        continue;
      for (const DepSplit &S : D.Splits) {
        if (S.Dead)
          continue;
        // Levels above L order whole L-instances; they do not constrain
        // distribution of L's body.
        if (S.Level >= 1 && S.Level <= static_cast<unsigned>(Depth))
          continue;
        Adj[SrcIt->second].push_back(DstIt->second);
        break;
      }
    }
  };
  addEdges(R.Flow);
  addEdges(R.Anti);
  addEdges(R.Output);

  SCCs SCC = stronglyConnectedComponents(Adj);

  // Groups in topological order (dependence sources first), statements in
  // program order inside each group.
  std::vector<DistributionGroup> Groups(SCC.NumComps);
  for (unsigned V = 0; V != Stmts.size(); ++V)
    Groups[SCC.CompOf[V]].StmtLabels.push_back(Stmts[V]);
  // Any edge inside a component marks it cyclic (including self edges).
  for (unsigned V = 0; V != Stmts.size(); ++V)
    for (unsigned W : Adj[V])
      if (SCC.CompOf[V] == SCC.CompOf[W])
        Groups[SCC.CompOf[V]].Cyclic = true;
  for (DistributionGroup &G : Groups)
    std::sort(G.StmtLabels.begin(), G.StmtLabels.end());
  return Groups;
}

std::string analysis::transformReport(const ir::AnalyzedProgram &AP,
                                      const AnalysisResult &R) {
  std::string Out;
  std::vector<LoopFacts> Loops = analyzeLoops(AP, R);
  for (const LoopFacts &F : Loops) {
    Out += "loop " + F.Loop->SourceVar + " (depth " +
           std::to_string(F.Loop->Depth + 1) + "): ";
    if (F.Parallelizable) {
      Out += "parallelizable";
      if (F.ParallelizableOnlyAfterKills)
        Out += " (only after eliminating false dependences)";
    } else if (F.FlowParallelizable) {
      Out += "parallelizable after storage elimination (only anti/output "
             "dependences carried)";
    } else {
      Out += "serial; carried:";
      for (const Dependence *D : F.Blockers)
        Out += " " + D->Src->Text + "->" + D->Dst->Text;
    }
    Out += "\n";
  }
  // Adjacent-loop interchange opportunities.
  for (const std::unique_ptr<ir::LoopInfo> &Outer : AP.Loops)
    for (const std::unique_ptr<ir::LoopInfo> &Inner : AP.Loops) {
      if (Inner->Depth != Outer->Depth + 1)
        continue;
      // Inner must be nested directly inside Outer.
      if (Inner->Path.size() < Outer->Path.size() ||
          !std::equal(Outer->Path.begin(), Outer->Path.end(),
                      Inner->Path.begin()))
        continue;
      Out += "interchange(" + Outer->SourceVar + ", " + Inner->SourceVar +
             "): " +
             (canInterchange(R, Outer.get(), Inner.get()) ? "legal"
                                                          : "illegal") +
             "\n";
    }
  // Distribution: only interesting when a loop body can actually split.
  for (const std::unique_ptr<ir::LoopInfo> &L : AP.Loops) {
    std::vector<DistributionGroup> Groups = distributeLoop(AP, R, L.get());
    if (Groups.size() < 2)
      continue;
    Out += "distribute " + L->SourceVar + ":";
    for (const DistributionGroup &G : Groups) {
      Out += " {";
      for (unsigned I = 0; I != G.StmtLabels.size(); ++I)
        Out += (I ? "," : "") + std::to_string(G.StmtLabels[I]);
      Out += G.Cyclic ? "}*" : "}";
    }
    Out += "\n";
  }
  return Out;
}
