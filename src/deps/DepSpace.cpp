//===- deps/DepSpace.cpp --------------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "deps/DepSpace.h"

#include "omega/Satisfiability.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace omega;
using namespace omega::deps;
using omega::ir::AffineExpr;
using omega::ir::SymId;
using omega::ir::SymKind;

DepSpace::DepSpace(const ir::AnalyzedProgram &AP,
                   std::vector<const ir::Access *> Instances)
    : AP(AP), Insts(std::move(Instances)) {
  InstTermVars.resize(Insts.size());

  // Gather every symbol referenced by any instance (subscripts and the
  // bounds of enclosing loops).
  auto collectFromExpr = [&](const AffineExpr &E, std::set<SymId> &Used) {
    for (const auto &[Sym, Coeff] : E.terms()) {
      (void)Coeff;
      Used.insert(Sym);
    }
  };

  std::vector<std::set<SymId>> UsedByInst(Insts.size());
  for (unsigned I = 0; I != Insts.size(); ++I) {
    for (const AffineExpr &Sub : Insts[I]->Subscripts)
      collectFromExpr(Sub, UsedByInst[I]);
    for (const ir::LoopInfo *L : Insts[I]->Loops) {
      for (const AffineExpr &B : L->Lower)
        collectFromExpr(B, UsedByInst[I]);
      for (const AffineExpr &B : L->Upper)
        collectFromExpr(B, UsedByInst[I]);
    }
  }

  // Iteration variables: one per instance per loop depth, named after the
  // source variable with an instance suffix when there are 2+ instances.
  IterVars.resize(Insts.size());
  for (unsigned I = 0; I != Insts.size(); ++I) {
    for (unsigned D = 0; D != Insts[I]->Loops.size(); ++D) {
      std::string Name = Insts[I]->Loops[D]->SourceVar;
      if (Insts.size() > 1)
        Name += "#" + std::to_string(I + 1);
      IterVars[I].push_back(Base.addVar(std::move(Name)));
    }
  }

  // Shared variables for symbolic constants and loop-invariant terms;
  // per-instance variables for loop-parameterized terms and for terms
  // reading mutable state (a scalar or index array that the program
  // writes has a different value at each instance).
  std::set<std::string> WrittenArrays;
  for (const ir::Access &A : AP.Accesses)
    if (A.IsWrite)
      WrittenArrays.insert(A.Array);
  for (unsigned I = 0; I != Insts.size(); ++I) {
    for (SymId S : UsedByInst[I]) {
      const ir::SymbolInfo &Info = AP.Symbols.info(S);
      if (Info.Kind == SymKind::LoopIter)
        continue; // mapped through IterVars
      bool ReadsMutableState =
          Info.IsIndexArrayRead && WrittenArrays.count(Info.IndexArray);
      bool Shared = Info.Kind == SymKind::SymConst ||
                    (Info.LoopParams.empty() && !ReadsMutableState);
      if (Shared) {
        if (!SharedVars.count(S))
          SharedVars[S] = Base.addVar(Info.Kind == SymKind::SymConst
                                          ? Info.Name
                                          : "<" + Info.SourceText + ">");
      } else if (!InstTermVars[I].count(S)) {
        InstTermVars[I][S] = Base.addVar(
            "<" + Info.SourceText + ">#" + std::to_string(I + 1));
      }
    }
  }
}

VarId DepSpace::iterVar(unsigned Inst, unsigned Depth) const {
  assert(Inst < IterVars.size() && Depth < IterVars[Inst].size());
  return IterVars[Inst][Depth];
}

VarId DepSpace::symConstVar(SymId S) const {
  auto It = SharedVars.find(S);
  assert(It != SharedVars.end() && "symbol has no shared variable");
  return It->second;
}

std::vector<VarId> DepSpace::symConstVars() const {
  std::vector<VarId> Out;
  for (const auto &[Sym, Var] : SharedVars)
    if (AP.Symbols.info(Sym).Kind == SymKind::SymConst)
      Out.push_back(Var);
  return Out;
}

VarId DepSpace::varForSymbol(unsigned Inst, SymId S) const {
  const ir::SymbolInfo &Info = AP.Symbols.info(S);
  if (Info.Kind == SymKind::LoopIter) {
    // Find the loop with this iteration symbol among the instance's loops.
    const std::vector<const ir::LoopInfo *> &Loops = Insts[Inst]->Loops;
    for (unsigned D = 0; D != Loops.size(); ++D)
      if (Loops[D]->IterSym == S)
        return IterVars[Inst][D];
    assert(false && "iteration symbol not among the instance's loops");
    return -1;
  }
  auto Shared = SharedVars.find(S);
  if (Shared != SharedVars.end())
    return Shared->second;
  auto It = InstTermVars[Inst].find(S);
  assert(It != InstTermVars[Inst].end() && "unmapped symbol");
  return It->second;
}

void DepSpace::accumulate(Constraint &Row, unsigned Inst, const AffineExpr &E,
                          int64_t Scale) const {
  for (const auto &[Sym, Coeff] : E.terms())
    Row.addToCoeff(varForSymbol(Inst, Sym), checkedMul(Coeff, Scale));
  Row.addToConstant(checkedMul(E.getConstant(), Scale));
}

void DepSpace::addIterationSpace(Problem &P, unsigned Inst) const {
  const ir::Access &A = access(Inst);
  for (unsigned D = 0; D != A.Loops.size(); ++D) {
    const ir::LoopInfo &L = *A.Loops[D];
    VarId Iter = iterVar(Inst, D);
    for (const AffineExpr &B : L.Lower) {
      // Iter - B >= 0.
      Constraint &Row = P.addRow(ConstraintKind::GEQ);
      Row.setCoeff(Iter, 1);
      accumulate(Row, Inst, B, -1);
    }
    for (const AffineExpr &B : L.Upper) {
      // B - Iter >= 0.
      Constraint &Row = P.addRow(ConstraintKind::GEQ);
      Row.setCoeff(Iter, -1);
      accumulate(Row, Inst, B, 1);
    }
    if (L.Stride != 1) {
      // Iter == Lower[0] + Stride * q, q >= 0.
      assert(L.Lower.size() == 1 && "stride requires a single lower bound");
      VarId Q = P.addWildcard();
      Constraint &Eq = P.addRow(ConstraintKind::EQ);
      Eq.setCoeff(Iter, 1);
      accumulate(Eq, Inst, L.Lower.front(), -1);
      Eq.setCoeff(Q, -L.Stride);
      Constraint &Ge = P.addRow(ConstraintKind::GEQ);
      Ge.setCoeff(Q, 1);
    }
  }
}

void DepSpace::addSubscriptsEqual(Problem &P, unsigned InstA,
                                  unsigned InstB) const {
  const ir::Access &A = access(InstA);
  const ir::Access &B = access(InstB);
  assert(A.Array == B.Array && "subscript equality across arrays");
  // Mismatched ranks (linearized vs. not) are compared on the common
  // prefix, conservatively.
  unsigned Dims = std::min(A.Subscripts.size(), B.Subscripts.size());
  for (unsigned D = 0; D != Dims; ++D) {
    Constraint &Row = P.addRow(ConstraintKind::EQ);
    accumulate(Row, InstA, A.Subscripts[D], 1);
    accumulate(Row, InstB, B.Subscripts[D], -1);
  }
}

unsigned DepSpace::numCommonLoops(unsigned InstA, unsigned InstB) const {
  return ir::AnalyzedProgram::numCommonLoops(access(InstA), access(InstB));
}

void DepSpace::addPrecedesAtLevel(Problem &P, unsigned InstA, unsigned InstB,
                                  unsigned Level) const {
  unsigned Common = numCommonLoops(InstA, InstB);
  assert(Level <= Common && "carried level beyond common nesting");
  unsigned EqualPrefix = Level == 0 ? Common : Level - 1;
  for (unsigned D = 0; D != EqualPrefix; ++D) {
    Constraint &Row = P.addRow(ConstraintKind::EQ);
    Row.setCoeff(iterVar(InstA, D), 1);
    Row.setCoeff(iterVar(InstB, D), -1);
  }
  if (Level != 0) {
    // iterB - iterA >= 1 at the carrying level.
    Constraint &Row = P.addRow(ConstraintKind::GEQ);
    Row.setCoeff(iterVar(InstB, Level - 1), 1);
    Row.setCoeff(iterVar(InstA, Level - 1), -1);
    Row.setConstant(-1);
  }
}

std::vector<Problem> DepSpace::precedesCases(const Problem &P, unsigned InstA,
                                             unsigned InstB) const {
  std::vector<Problem> Cases;
  unsigned Common = numCommonLoops(InstA, InstB);
  for (unsigned Level = 1; Level <= Common; ++Level) {
    Problem Case = P;
    addPrecedesAtLevel(Case, InstA, InstB, Level);
    Cases.push_back(std::move(Case));
  }
  if (textuallyBefore(InstA, InstB)) {
    Problem Case = P;
    addPrecedesAtLevel(Case, InstA, InstB, 0);
    Cases.push_back(std::move(Case));
  }
  return Cases;
}

std::vector<DepSpace::TermVar> DepSpace::termVars() const {
  std::vector<TermVar> Out;
  for (const auto &[Sym, Var] : SharedVars)
    if (AP.Symbols.info(Sym).Kind == ir::SymKind::Term)
      Out.push_back(TermVar{-1, Sym, Var});
  for (unsigned I = 0; I != InstTermVars.size(); ++I)
    for (const auto &[Sym, Var] : InstTermVars[I])
      Out.push_back(TermVar{static_cast<int>(I), Sym, Var});
  return Out;
}

std::string DepSpace::RestraintVector::toString() const {
  std::string Out = "(";
  for (unsigned K = 0; K != MinAtLevel.size(); ++K) {
    if (K)
      Out += ",";
    if (ExactAtLevel[K] != INT64_MIN)
      Out += std::to_string(ExactAtLevel[K]);
    else if (MinAtLevel[K] == INT64_MIN)
      Out += "*";
    else if (MinAtLevel[K] == 0)
      Out += "0+";
    else if (MinAtLevel[K] == 1)
      Out += "+";
    else
      Out += std::to_string(MinAtLevel[K]) + "+";
  }
  return Out + ")";
}

void DepSpace::addRestraint(Problem &P, unsigned InstA, unsigned InstB,
                            const RestraintVector &R) const {
  for (unsigned K = 0; K != R.MinAtLevel.size(); ++K) {
    if (R.ExactAtLevel[K] != INT64_MIN) {
      Constraint &Row = P.addRow(ConstraintKind::EQ);
      Row.setCoeff(iterVar(InstB, K), 1);
      Row.setCoeff(iterVar(InstA, K), -1);
      Row.setConstant(-R.ExactAtLevel[K]);
    } else if (R.MinAtLevel[K] != INT64_MIN) {
      Constraint &Row = P.addRow(ConstraintKind::GEQ);
      Row.setCoeff(iterVar(InstB, K), 1);
      Row.setCoeff(iterVar(InstA, K), -1);
      Row.setConstant(-R.MinAtLevel[K]);
    }
  }
}

std::vector<DepSpace::RestraintVector>
DepSpace::computeRestraintVectors(const Problem &Pair, unsigned InstA,
                                  unsigned InstB, OmegaContext &Ctx) const {
  unsigned Common = numCommonLoops(InstA, InstB);
  std::vector<RestraintVector> Out;
  if (Common == 0) {
    if (textuallyBefore(InstA, InstB))
      Out.push_back(RestraintVector{});
    return Out;
  }

  auto distanceRow = [&](Problem &P, unsigned K, int64_t Constant,
                         ConstraintKind Kind) {
    Constraint &Row = P.addRow(Kind);
    Row.setCoeff(iterVar(InstB, K), 1);
    Row.setCoeff(iterVar(InstA, K), -1);
    Row.setConstant(Constant);
  };

  // First try the merged restraint Delta_1 >= 0 (Section 2.1.2's cheap
  // case, sufficient for coupled distances like Example 6): valid when it
  // already excludes every lexicographically negative solution.
  {
    bool Valid = true;
    for (unsigned Neg = 1; Neg <= Common && Valid; ++Neg) {
      Problem Test = Pair;
      distanceRow(Test, 0, 0, ConstraintKind::GEQ); // Delta_1 >= 0
      for (unsigned K = 0; K + 1 < Neg; ++K)
        distanceRow(Test, K, 0, ConstraintKind::EQ); // prefix zero
      distanceRow(Test, Neg - 1, -1, ConstraintKind::GEQ);
      // ... with the orientation flipped: Delta_Neg <= -1.
      Constraint &Row = Test.constraints().back();
      Row.negateForm();
      Row.setConstant(-1);
      Valid = !isSatisfiable(std::move(Test), Ctx);
    }
    if (Valid) {
      RestraintVector R;
      R.MinAtLevel.assign(Common, INT64_MIN);
      R.ExactAtLevel.assign(Common, INT64_MIN);
      R.MinAtLevel[0] = 0;
      Out.push_back(std::move(R));
      return Out;
    }
  }

  // Fall back: one restraint per feasible carried level, plus the
  // loop-independent case when the endpoints are textually ordered.
  for (unsigned Level = 1; Level <= Common; ++Level) {
    Problem Test = Pair;
    RestraintVector R;
    R.MinAtLevel.assign(Common, INT64_MIN);
    R.ExactAtLevel.assign(Common, INT64_MIN);
    for (unsigned K = 0; K + 1 < Level; ++K)
      R.ExactAtLevel[K] = 0;
    R.MinAtLevel[Level - 1] = 1;
    addRestraint(Test, InstA, InstB, R);
    if (isSatisfiable(std::move(Test), Ctx))
      Out.push_back(std::move(R));
  }
  if (textuallyBefore(InstA, InstB)) {
    Problem Test = Pair;
    RestraintVector R;
    R.MinAtLevel.assign(Common, INT64_MIN);
    R.ExactAtLevel.assign(Common, 0);
    addRestraint(Test, InstA, InstB, R);
    if (isSatisfiable(std::move(Test), Ctx))
      Out.push_back(std::move(R));
  }
  return Out;
}

std::vector<VarId> DepSpace::addDistanceVars(Problem &P, unsigned InstA,
                                             unsigned InstB) const {
  std::vector<VarId> Deltas;
  unsigned Common = numCommonLoops(InstA, InstB);
  for (unsigned D = 0; D != Common; ++D) {
    VarId Delta =
        P.addVar("d" + std::to_string(D + 1), /*Protected=*/true);
    Constraint &Row = P.addRow(ConstraintKind::EQ);
    Row.setCoeff(Delta, -1);
    Row.setCoeff(iterVar(InstB, D), 1);
    Row.setCoeff(iterVar(InstA, D), -1);
    Deltas.push_back(Delta);
  }
  return Deltas;
}
