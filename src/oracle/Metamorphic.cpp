//===- oracle/Metamorphic.cpp ---------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "oracle/Metamorphic.h"

#include "deps/DependenceAnalysis.h"
#include "omega/Satisfiability.h"
#include "oracle/TraceOracle.h"
#include "support/MathUtils.h"

#include <algorithm>
#include <map>
#include <set>

using namespace omega;
using namespace omega::oracle;

Problem oracle::permuteVariables(const Problem &P,
                                 const std::vector<VarId> &Perm) {
  Problem Q;
  // Column Perm[V] of Q carries old variable V; invert to lay out names.
  std::vector<VarId> Inv(Perm.size());
  for (VarId V = 0, E = static_cast<VarId>(Perm.size()); V != E; ++V)
    Inv[Perm[V]] = V;
  for (VarId NewV = 0, E = static_cast<VarId>(Perm.size()); NewV != E; ++NewV)
    Q.addVar(P.getVarName(Inv[NewV]), P.isProtected(Inv[NewV]));
  for (const Constraint &Row : P.constraints()) {
    Constraint &Out = Q.addRow(Row.getKind(), Row.isRed());
    for (VarId V = 0, E = static_cast<VarId>(Perm.size()); V != E; ++V)
      Out.setCoeff(Perm[V], Row.getCoeff(V));
    Out.setConstant(Row.getConstant());
  }
  return Q;
}

Problem oracle::shuffleRows(const Problem &P, std::mt19937 &Rng) {
  Problem Q = P.cloneLayout();
  std::vector<const Constraint *> Rows;
  for (const Constraint &Row : P.constraints())
    Rows.push_back(&Row);
  std::shuffle(Rows.begin(), Rows.end(), Rng);
  for (const Constraint *Row : Rows)
    Q.addConstraint(*Row);
  return Q;
}

Problem oracle::scaleRows(const Problem &P, std::mt19937 &Rng,
                          int64_t MaxFactor) {
  Problem Q = P.cloneLayout();
  std::uniform_int_distribution<int64_t> Factor(1, MaxFactor);
  for (const Constraint &Row : P.constraints()) {
    Constraint Scaled = Row;
    int64_t F = Factor(Rng);
    if (Scaled.isEquality() && Factor(Rng) == 1)
      F = -F; // an equality survives negation too
    Scaled.scale(F);
    Q.addConstraint(std::move(Scaled));
  }
  return Q;
}

void oracle::checkProblemMetamorphic(const Problem &P, std::mt19937 &Rng,
                                     ModelReport &Out, OmegaContext &Ctx) {
  bool Before = arithOverflowFlag();
  bool Base = isSatisfiable(P, Ctx);
  if (!Before && arithOverflowFlag())
    return; // saturated verdicts are conservative by design

  std::vector<VarId> Perm;
  for (VarId V = 0, E = static_cast<VarId>(P.getNumVars()); V != E; ++V)
    Perm.push_back(V);
  std::shuffle(Perm.begin(), Perm.end(), Rng);

  struct Variant {
    const char *Name;
    Problem Transformed;
  } Variants[] = {
      {"variable permutation", permuteVariables(P, Perm)},
      {"row shuffle", shuffleRows(P, Rng)},
      {"positive row scaling", scaleRows(P, Rng)},
  };
  for (Variant &V : Variants) {
    ++Out.Checked;
    bool Pre = arithOverflowFlag();
    bool Got = isSatisfiable(V.Transformed, Ctx);
    if (!Pre && arithOverflowFlag())
      continue; // the transform (e.g. scaling) pushed a row into saturation
    if (Got != Base)
      Out.Mismatches.push_back(std::string("metamorphic: ") + V.Name +
                               " flipped satisfiability from " +
                               (Base ? "SAT" : "UNSAT") + " for " +
                               P.toString());
  }
}

//===----------------------------------------------------------------------===//
// Loop-bound widening
//===----------------------------------------------------------------------===//

namespace {

bool widenStmt(ir::Stmt &S, int64_t Extra) {
  if (!S.isFor())
    return true;
  ir::ForStmt &F = S.asFor();
  if (F.Step < 0)
    return false; // widening Hi would shrink a downward loop
  F.Hi = ir::Expr::add(F.Hi, ir::Expr::intLit(Extra));
  for (ir::Stmt &Child : F.Body)
    if (!widenStmt(Child, Extra))
      return false;
  return true;
}

} // namespace

std::optional<ir::Program> oracle::widenLoopBounds(const ir::Program &P,
                                                   int64_t Extra) {
  ir::Program Wide = P;
  for (ir::Stmt &S : Wide.Body)
    if (!widenStmt(S, Extra))
      return std::nullopt;
  return Wide;
}

void oracle::checkWidenedMonotone(const ir::AnalyzedProgram &Narrow,
                                  const ir::AnalyzedProgram &Wide,
                                  ModelReport &Out) {
  deps::DependenceAnalysis NarrowDA(Narrow), WideDA(Wide);
  std::vector<deps::Dependence> NarrowDeps = NarrowDA.computeAllDependences();
  std::vector<deps::Dependence> WideDeps = WideDA.computeAllDependences();
  std::map<AccessKey, const ir::Access *> WideMap = buildAccessMap(Wide);

  // Wide access-pair dependence levels, keyed by matched source/dest sites.
  auto keyOf = [](const ir::Access &A, unsigned Ordinal) {
    return AccessKey{A.StmtLabel, A.IsWrite, Ordinal};
  };
  std::map<const ir::Access *, unsigned> Ordinals;
  {
    std::map<unsigned, unsigned> Next;
    for (const ir::Access &A : Narrow.Accesses)
      Ordinals[&A] = A.IsWrite ? 0 : Next[A.StmtLabel]++;
  }
  std::map<const ir::Access *, unsigned> WideOrdinals;
  {
    std::map<unsigned, unsigned> Next;
    for (const ir::Access &A : Wide.Accesses)
      WideOrdinals[&A] = A.IsWrite ? 0 : Next[A.StmtLabel]++;
  }
  std::set<std::tuple<AccessKey, AccessKey, deps::DepKind, unsigned>>
      WidePresent;
  for (const deps::Dependence &D : WideDeps)
    for (const deps::DepSplit &S : D.Splits)
      WidePresent.insert({keyOf(*D.Src, WideOrdinals[D.Src]),
                          keyOf(*D.Dst, WideOrdinals[D.Dst]), D.Kind,
                          S.Level});

  for (const deps::Dependence &D : NarrowDeps) {
    AccessKey SrcKey = keyOf(*D.Src, Ordinals[D.Src]);
    AccessKey DstKey = keyOf(*D.Dst, Ordinals[D.Dst]);
    if (!WideMap.count(SrcKey) || !WideMap.count(DstKey))
      continue; // structurally different program; nothing to compare
    for (const deps::DepSplit &S : D.Splits) {
      ++Out.Checked;
      if (!WidePresent.count({SrcKey, DstKey, D.Kind, S.Level}))
        Out.Mismatches.push_back(
            std::string("widening: ") + deps::depKindName(D.Kind) +
            " dependence " + D.Src->Text + " -> " + D.Dst->Text +
            " at level " + std::to_string(S.Level) +
            " disappeared when loop bounds were widened");
    }
  }
}
