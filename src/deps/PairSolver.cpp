//===- deps/PairSolver.cpp - Per-pair dependence solving ------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "deps/PairSolver.h"

#include "deps/DependenceAnalysis.h"
#include "obs/Trace.h"
#include "omega/Projection.h"
#include "omega/Satisfiability.h"
#include "support/MathUtils.h"

using namespace omega;
using namespace omega::deps;

PairSolver::PairSolver(const ir::AnalyzedProgram &AP, const ir::Access &A,
                       const ir::Access &B, OmegaContext &Ctx)
    : Space(AP, {&A, &B}), Ctx(Ctx) {}

//===----------------------------------------------------------------------===//
// Quick tests (ZIV / GCD / single-subscript bounds)
//===----------------------------------------------------------------------===//

namespace {

/// Per-variable interval data for the bounds test: the constant part of a
/// loop's bound box. The true iteration range is a subset of
/// [max(constant lowers), min(constant uppers)] -- max/min bound semantics
/// plus strides only ever shrink the set -- so excluding zero from the
/// subscript row's interval image is sound for any refinement.
struct VarBox {
  bool IsIter = false;
  bool HasLo = false, HasHi = false;
  int64_t Lo = 0, Hi = 0;
  bool ExactBox = false; ///< all bound entries constant, stride 1
};

} // namespace

void PairSolver::ensureQuickTests() {
  if (QuickDone)
    return;
  QuickDone = true;
  obs::ScopedSpan Span(Ctx.Trace, obs::SpanKind::QuickTest,
                       static_cast<uint32_t>(Space.base().getNumVars()), 0);

  // The subscript-equality system alone (no iteration-space rows): every
  // quick test reasons about these equalities over the loops' bound boxes.
  Problem Sub = Space.base().cloneLayout();
  Space.addSubscriptsEqual(Sub, 0, 1);

  std::vector<VarBox> Box(Sub.getNumVars());
  bool AllBoxesExactNonEmpty = true;
  for (unsigned Inst = 0; Inst != 2; ++Inst) {
    const ir::Access &A = Space.access(Inst);
    for (unsigned D = 0; D != A.Loops.size(); ++D) {
      const ir::LoopInfo &L = *A.Loops[D];
      VarBox &B = Box[Space.iterVar(Inst, D)];
      B.IsIter = true;
      bool AllConst = !L.Lower.empty() && !L.Upper.empty() && L.Stride == 1;
      for (const ir::AffineExpr &E : L.Lower) {
        if (!E.isConstant()) {
          AllConst = false;
          continue;
        }
        int64_t C = E.getConstant();
        if (!B.HasLo || C > B.Lo)
          B.Lo = C;
        B.HasLo = true;
      }
      for (const ir::AffineExpr &E : L.Upper) {
        if (!E.isConstant()) {
          AllConst = false;
          continue;
        }
        int64_t C = E.getConstant();
        if (!B.HasHi || C < B.Hi)
          B.Hi = C;
        B.HasHi = true;
      }
      B.ExactBox = AllConst && B.HasLo && B.HasHi && B.Lo <= B.Hi;
      if (!B.ExactBox)
        AllBoxesExactNonEmpty = false;
    }
  }

  // Classify each subscript-difference row. A row that no test cracks is
  // just skipped; the first independent row decides the pair.
  bool AllRowsIdenticallyZero = true;
  unsigned NumVars = Sub.getNumVars();
  for (const Constraint &Row : Sub.constraints()) {
    int64_t K = Row.getConstant();
    bool AnyVar = false, OnlyIter = true;
    int64_t G = 0;
    // Interval image of the row over the bound boxes, in __int128 so no
    // saturation bookkeeping is needed (|coeff * bound| <= 2^126 and row
    // widths are tiny).
    __int128 SumLo = K, SumHi = K;
    bool LoInf = false, HiInf = false;
    for (VarId V = 0; V != static_cast<VarId>(NumVars); ++V) {
      int64_t A = Row.getCoeff(V);
      if (A == 0)
        continue;
      AnyVar = true;
      const VarBox &B = Box[V];
      if (!B.IsIter) {
        OnlyIter = false;
        break;
      }
      G = gcd64(G, A);
      __int128 TermLo, TermHi;
      bool TermLoInf, TermHiInf;
      if (A > 0) {
        TermLo = static_cast<__int128>(A) * B.Lo;
        TermHi = static_cast<__int128>(A) * B.Hi;
        TermLoInf = !B.HasLo;
        TermHiInf = !B.HasHi;
      } else {
        TermLo = static_cast<__int128>(A) * B.Hi;
        TermHi = static_cast<__int128>(A) * B.Lo;
        TermLoInf = !B.HasHi;
        TermHiInf = !B.HasLo;
      }
      SumLo += TermLo;
      SumHi += TermHi;
      LoInf |= TermLoInf;
      HiInf |= TermHiInf;
    }

    if (!AnyVar) {
      if (K != 0) {
        // ZIV: a constant subscript difference that is not zero.
        Verdict = QuickVerdict::Independent;
        Class = QuickClass::ZIV;
        return;
      }
      continue; // identically-zero row: trivially satisfied
    }
    AllRowsIdenticallyZero = false;
    if (!OnlyIter)
      continue; // symbolic constants / terms involved: no quick test
    if (K % G != 0) {
      // GCD: the coefficient gcd divides every integer combination of the
      // iteration variables but not the constant -- over *any* subset of
      // Z^n there is no solution.
      Verdict = QuickVerdict::Independent;
      Class = QuickClass::GCD;
      return;
    }
    if ((!LoInf && SumLo > 0) || (!HiInf && SumHi < 0)) {
      // Bounds: zero lies outside the row's interval image.
      Verdict = QuickVerdict::Independent;
      Class = QuickClass::Bounds;
      return;
    }
  }

  // Trivially dependent (narrow by design): no common loop, subscripts
  // identically equal, and every loop of both instances a non-empty
  // constant box -- each instance's space is non-empty and unconstrained by
  // the other, so the pair depends iff the source is textually first,
  // which is exactly what the from-scratch path concludes.
  if (AllRowsIdenticallyZero && Space.numCommonLoops(0, 1) == 0 &&
      AllBoxesExactNonEmpty)
    Verdict = QuickVerdict::TriviallyDependent;
}

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

  if (Ctx.PairQuickTests) {
    ensureQuickTests();
    if (Verdict == QuickVerdict::Independent) {
      switch (Class) {
      case QuickClass::ZIV:
        ++Ctx.Stats.QuickTestZIV;
        break;
      case QuickClass::GCD:
        ++Ctx.Stats.QuickTestGCD;
        break;
      case QuickClass::Bounds:
        ++Ctx.Stats.QuickTestBounds;
        break;
      case QuickClass::None:
        assert(false && "independent verdict without a class");
        break;
      }
      ++Ctx.Stats.QuickTestDecided;
      if (Ctx.Trace)
        Ctx.Trace->decision(Class == QuickClass::ZIV
                                ? "quick-test (ziv): independent"
                                : Class == QuickClass::GCD
                                      ? "quick-test (gcd): independent"
                                      : "quick-test (bounds): independent");
      Q.Decided = true;
      return Q;
    }
    if (Verdict == QuickVerdict::TriviallyDependent) {
      ++Ctx.Stats.QuickTestTrivialDep;
      ++Ctx.Stats.QuickTestDecided;
      Q.Decided = true;
      if (!Space.textuallyBefore(Q.SI, Q.DI)) {
        if (Ctx.Trace)
          Ctx.Trace->decision("quick-test (trivial): not textually ordered");
        return Q;
      }
      if (Ctx.Trace)
        Ctx.Trace->decision("quick-test (trivial): loop-independent dep");
      Dependence Dep;
      Dep.Src = &Src;
      Dep.Dst = &Dst;
      Dep.Kind = Kind;
      DepSplit Split;
      Split.Level = 0; // no common loops => no distance vars, empty Dir
      Dep.Splits.push_back(std::move(Split));
      Q.Answer = std::move(Dep);
      return Q;
    }
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
  if (!isSatisfiable(Case, SatOptions(), Ctx))
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
  if (Q.Decided)
    return Q.Answer;
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
