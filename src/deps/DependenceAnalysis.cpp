//===- deps/DependenceAnalysis.cpp ----------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "deps/DependenceAnalysis.h"

#include "deps/PairSolver.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

using namespace omega;
using namespace omega::deps;

Problem deps::buildPairProblem(const DepSpace &Space) {
  Problem P = Space.base();
  Space.addIterationSpace(P, 0);
  Space.addIterationSpace(P, 1);
  Space.addSubscriptsEqual(P, 0, 1);
  return P;
}

std::optional<Dependence>
DependenceAnalysis::computeDependence(const ir::Access &Src,
                                      const ir::Access &Dst,
                                      DepKind Kind) const {
  PairSolver Solver(AP, Src, Dst, Ctx);
  return Solver.computeDependence(Src, Dst, Kind);
}

std::vector<Dependence>
DependenceAnalysis::computeDependences(DepKind Kind) const {
  std::vector<Dependence> Out;
  for (const ir::Access &Src : AP.Accesses) {
    bool SrcIsWrite = Kind == DepKind::Flow || Kind == DepKind::Output;
    if (Src.IsWrite != SrcIsWrite)
      continue;
    for (const ir::Access &Dst : AP.Accesses) {
      bool DstIsWrite = Kind == DepKind::Anti || Kind == DepKind::Output;
      if (Dst.IsWrite != DstIsWrite || Dst.Array != Src.Array)
        continue;
      if (&Src == &Dst && Kind != DepKind::Output)
        continue; // a reference cannot flow to itself except write/write
      if (std::optional<Dependence> Dep = computeDependence(Src, Dst, Kind))
        Out.push_back(std::move(*Dep));
    }
  }
  return Out;
}

std::vector<Dependence> DependenceAnalysis::computeAllDependences() const {
  // Enumerate the query triples in the legacy emission order (all flow,
  // then anti, then output), but solve them grouped by *unordered*
  // reference pair: the flow and anti questions about a read/write pair --
  // and the two directions plus all levels of each -- share one PairSolver,
  // so the shared pair problem is built once per pair instead of once per
  // query.
  struct Query {
    const ir::Access *Src;
    const ir::Access *Dst;
    DepKind Kind;
  };
  std::vector<Query> Queries;
  auto Enumerate = [&](DepKind Kind) {
    for (const ir::Access &Src : AP.Accesses) {
      bool SrcIsWrite = Kind == DepKind::Flow || Kind == DepKind::Output;
      if (Src.IsWrite != SrcIsWrite)
        continue;
      for (const ir::Access &Dst : AP.Accesses) {
        bool DstIsWrite = Kind == DepKind::Anti || Kind == DepKind::Output;
        if (Dst.IsWrite != DstIsWrite || Dst.Array != Src.Array)
          continue;
        if (&Src == &Dst && Kind != DepKind::Output)
          continue;
        Queries.push_back({&Src, &Dst, Kind});
      }
    }
  };
  Enumerate(DepKind::Flow);
  Enumerate(DepKind::Anti);
  Enumerate(DepKind::Output);

  std::map<std::pair<unsigned, unsigned>, std::unique_ptr<PairSolver>> Solvers;
  std::vector<Dependence> Out;
  for (const Query &Q : Queries) {
    auto Key = std::minmax(Q.Src->Id, Q.Dst->Id);
    std::unique_ptr<PairSolver> &Solver =
        Solvers[{Key.first, Key.second}];
    if (!Solver)
      Solver = std::make_unique<PairSolver>(AP, *Q.Src, *Q.Dst, Ctx);
    if (std::optional<Dependence> Dep =
            Solver->computeDependence(*Q.Src, *Q.Dst, Q.Kind))
      Out.push_back(std::move(*Dep));
  }
  return Out;
}
