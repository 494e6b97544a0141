//===- deps/PairSolver.cpp - Per-pair dependence solving ------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "deps/PairSolver.h"

#include "deps/DependenceAnalysis.h"
#include "omega/Projection.h"
#include "omega/Satisfiability.h"

using namespace omega;
using namespace omega::deps;

PairSolver::PairSolver(const ir::AnalyzedProgram &AP, const ir::Access &A,
                       const ir::Access &B, OmegaContext &Ctx)
    : Space(AP, {&A, &B}), Ctx(Ctx) {}

//===----------------------------------------------------------------------===//
// Queries: plan, cases, assembly
//===----------------------------------------------------------------------===//

PairSolver::QueryPlan PairSolver::plan(const ir::Access &Src,
                                       const ir::Access &Dst, DepKind Kind) {
  QueryPlan Q;
  Q.Src = &Src;
  Q.Dst = &Dst;
  Q.Kind = Kind;
  // Map the ordered query onto the solver's instances. Self-pairs always
  // use (0, 1): both instances reference the same access, so either
  // assignment produces the same (symmetric) problem.
  if (&Src != &Dst) {
    Q.SI = (&Src == &Space.access(0)) ? 0 : 1;
    Q.DI = 1 - Q.SI;
    assert(&Dst == &Space.access(Q.DI) && "query about a different pair");
  }

  for (unsigned Level = 1, Common = Space.numCommonLoops(Q.SI, Q.DI);
       Level <= Common; ++Level)
    Q.Levels.push_back(Level);
  if (Space.textuallyBefore(Q.SI, Q.DI))
    Q.Levels.push_back(0);
  if (!Q.Levels.empty() && !Pair)
    Pair = buildPairProblem(Space);
  return Q;
}

std::optional<DepSplit> PairSolver::solveCase(const QueryPlan &Q,
                                              unsigned Level,
                                              OmegaContext &Ctx) const {
  assert(Pair && "plan() builds the pair problem before any case");
  Problem Case = *Pair;
  Space.addPrecedesAtLevel(Case, Q.SI, Q.DI, Level);
  if (!isSatisfiable(Case, Ctx))
    return std::nullopt;
  std::vector<VarId> Deltas = Space.addDistanceVars(Case, Q.SI, Q.DI);
  DepSplit Split;
  Split.Level = Level;
  Split.Dir.resize(Deltas.size());
  // One projection per distance, each independent of the others.
  Ctx.forEachIndependent(Deltas.size(), [&](std::size_t L, OmegaContext &Sub) {
    Split.Dir[L].Range = computeVarRange(Case, Deltas[L], Sub);
  });
  return Split;
}

std::optional<Dependence>
PairSolver::assemble(const QueryPlan &Q,
                     std::vector<std::optional<DepSplit>> Cases) {
  assert(Cases.size() == Q.Levels.size() && "one result per case");
  Dependence Dep;
  Dep.Src = Q.Src;
  Dep.Dst = Q.Dst;
  Dep.Kind = Q.Kind;
  for (std::optional<DepSplit> &Split : Cases)
    if (Split)
      Dep.Splits.push_back(std::move(*Split));
  if (Dep.Splits.empty())
    return std::nullopt;
  return Dep;
}

std::optional<Dependence> PairSolver::computeDependence(const ir::Access &Src,
                                                        const ir::Access &Dst,
                                                        DepKind Kind) {
  QueryPlan Q = plan(Src, Dst, Kind);
  std::vector<std::optional<DepSplit>> Cases;
  for (unsigned Level : Q.Levels)
    Cases.push_back(solveCase(Q, Level, Ctx));
  return assemble(Q, std::move(Cases));
}
