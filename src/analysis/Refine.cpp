//===- analysis/Refine.cpp ------------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "analysis/Refine.h"

#include "analysis/Implication.h"
#include "obs/Trace.h"
#include "omega/OmegaContext.h"
#include "omega/Projection.h"
#include "omega/Satisfiability.h"

#include <algorithm>
#include <optional>

using namespace omega;
using namespace omega::analysis;
using omega::deps::DepSpace;

namespace {

std::vector<bool> keepAllBut(const Problem &P, const DepSpace &Space,
                             unsigned Inst) {
  std::vector<bool> Keep(P.getNumVars(), true);
  for (unsigned D = 0; D != Space.access(Inst).Loops.size(); ++D)
    Keep[Space.iterVar(Inst, D)] = false;
  return Keep;
}

/// One execution-order case of the unrefined dependence (a restraint
/// vector), with distance variables attached so minima can be extracted.
struct LevelProblem {
  unsigned Level = 0;
  Problem P;
  std::vector<VarId> Deltas;
  /// The range of each distance variable over P as it stands, where
  /// known: phase 1's exact ranges to begin with, then every range
  /// computed here (P determines the answer, so a range computed once is
  /// never computed again), and [c,c] for each pinned distance.
  std::vector<std::optional<IntRange>> Known;
  unsigned NumPinned = 0; ///< Delta_0 .. Delta_{NumPinned-1} are pinned
  bool Feasible = true;

  /// The range of Delta_L over P.
  IntRange range(unsigned L, OmegaContext &Ctx) {
    if (!Known[L])
      Known[L] = computeVarRange(P, Deltas[L], Ctx);
    return *Known[L];
  }

  /// True when a known range is exact and non-empty, which shows that P
  /// has an integer point. Before any pin this holds unless overflow left
  /// every phase-1 range of the level inexact; after one it always holds.
  bool provenSatisfiable() const {
    return std::any_of(Known.begin(), Known.end(),
                       [](const std::optional<IntRange> &R) {
                         return R && R->Exact && !R->Empty;
                       });
  }

  /// Fixes Delta_L, the next unpinned distance, to \p Value, the least
  /// minimum of Delta_L over the levels pinned together (its range here
  /// must be known). Where this level's own exact minimum is \p Value the
  /// minimum is attained, so the level keeps a point and Delta_L the range
  /// [Value, Value]; where it is larger no point is left, and the level is
  /// dropped without a solver call. Pinned distances keep their constant;
  /// the other ranges are forgotten.
  void pin(unsigned L, int64_t Value) {
    const IntRange &R = *Known[L];
    assert(L == NumPinned && R.Exact && R.HasMin && R.Min >= Value &&
           "pins go outermost-in at a known minimum");
    if (R.Min != Value) {
      Feasible = false;
      return;
    }
    Constraint &Pin = P.addRow(ConstraintKind::EQ);
    Pin.setCoeff(Deltas[L], 1);
    Pin.setConstant(-Value);
    IntRange Fixed;
    Fixed.Empty = false;
    Fixed.HasMin = Fixed.HasMax = true;
    Fixed.Min = Fixed.Max = Value;
    Known[L] = Fixed;
    for (unsigned K = L + 1; K != Known.size(); ++K)
      Known[K].reset();
    ++NumPinned;
  }
};

/// Does every piece of \p LHS imply the union \p RHS? Stops at the first
/// piece that does not. The pieces come from a projection that dropped
/// its empty pieces and was not poisoned, so each is known satisfiable.
bool impliesAll(const std::vector<Problem> &LHS,
                const std::vector<Problem> &RHS, OmegaContext &Ctx) {
  for (const Problem &Piece : LHS)
    if (!checkImplication(Piece, RHS, Ctx, /*LHSSatisfiable=*/true))
      return false;
  return true;
}

/// Shared state for the refinement passes over one dependence. Wherever
/// it holds projections that do not depend on each other -- the levels'
/// left-hand sides, one step's ranges across levels, the precedes cases
/// of a right-hand side, and pass 2 with each level's new split -- it
/// runs them through the caller's forEachIndependent, so idle helpers
/// can take them. Each of those calls runs a fixed set of projections,
/// whoever runs them, so the solver work is the same at every job count.
class Refiner {
public:
  Refiner(const ir::AnalyzedProgram &AP, const ir::Access &A,
          const ir::Access &B, deps::Dependence &Dep)
      : Space(AP, {&A, &A, &B}), Dep(Dep) {
    Common = Space.numCommonLoops(0, 2);
    for (const deps::DepSplit &Split : Dep.Splits) {
      LevelProblem L;
      L.Level = Split.Level;
      L.P = Space.base();
      Space.addIterationSpace(L.P, 0);
      Space.addIterationSpace(L.P, 2);
      Space.addSubscriptsEqual(L.P, 0, 2);
      Space.addPrecedesAtLevel(L.P, 0, 2, Split.Level);
      L.Deltas = Space.addDistanceVars(L.P, 0, 2);
      assert(Split.Dir.size() == Common && "one range per common loop");
      for (const deps::DirectionElem &Elem : Split.Dir)
        L.Known.push_back(Elem.Range.Exact ? std::optional(Elem.Range)
                                           : std::nullopt);
      Levels.push_back(std::move(L));
    }
  }

  unsigned numCommonLoops() const { return Common; }
  unsigned numLevels() const { return static_cast<unsigned>(Levels.size()); }

  /// Pass 1 (the paper's candidate generator over the whole dependence):
  /// fixes distances outermost-in to their least minimum over every
  /// level, verifying each extension against every level's receivers,
  /// and pins each accepted distance into every level. Returns the
  /// number of loops fixed; they stay in Prefix for pass 2.
  unsigned runWholePass(RefineResult &Out, OmegaContext &Ctx) {
    buildLHSPieces(Ctx);
    std::vector<Problem> Receivers;
    for (const CachedPieces &Entry : LHS) {
      if (Entry.Poisoned)
        return 0; // conservative: the whole-dependence pass is skipped
      Receivers.insert(Receivers.end(), Entry.Pieces.begin(),
                       Entry.Pieces.end());
    }
    if (Receivers.empty())
      return 0;

    for (unsigned L = 0; L != Common; ++L) {
      computeRanges(L, Ctx);
      std::optional<int64_t> Min = leastMinimum(L);
      if (!Min)
        break;
      std::vector<int64_t> Fixed = Prefix;
      Fixed.push_back(*Min);
      Out.UsedGeneralTest = true;
      std::vector<Problem> RHS = buildRHSPieces(Fixed, Ctx);
      if (!impliesAll(Receivers, RHS, Ctx)) {
        Unproved = std::move(Fixed);
        UnprovedRHS = std::move(RHS);
        break;
      }
      for (LevelProblem &Lvl : Levels)
        if (Lvl.Feasible)
          Lvl.pin(L, *Min);
      Prefix.push_back(*Min);
    }
    return static_cast<unsigned>(Prefix.size());
  }

  /// Pass 2 for one level (the generator within its own restraint),
  /// resuming after pass 1's proven prefix. Touches only that level, and
  /// reads what pass 1 left. Returns true if it consulted the Omega test.
  bool refineLevel(unsigned Idx, OmegaContext &Ctx) {
    LevelProblem &Lvl = Levels[Idx];
    const CachedPieces &Receivers = LHS[Idx];
    if (!Lvl.Feasible || Receivers.Poisoned || Receivers.Pieces.empty())
      return false;
    bool Used = false;
    std::vector<int64_t> Fixed = Prefix;
    for (unsigned L = Lvl.NumPinned; L != Common; ++L) {
      IntRange R = Lvl.range(L, Ctx);
      if (R.Empty) {
        Lvl.Feasible = false;
        break;
      }
      if (!R.HasMin)
        break;
      Fixed.push_back(R.Min);
      Used = true;
      bool Implied =
          Fixed == Unproved
              ? impliesAll(Receivers.Pieces, UnprovedRHS, Ctx)
              : impliesAll(Receivers.Pieces, buildRHSPieces(Fixed, Ctx), Ctx);
      if (!Implied)
        break;
      Lvl.pin(L, R.Min);
    }
    return Used;
  }

  /// The level's split as it now stands: every distance range, projected
  /// only where it is not known, or nothing when the level is empty.
  std::optional<deps::DepSplit> levelSplit(unsigned Idx, OmegaContext &Ctx) {
    LevelProblem &Lvl = Levels[Idx];
    if (!Lvl.Feasible ||
        (!Lvl.provenSatisfiable() && !isSatisfiable(Lvl.P, Ctx))) {
      Lvl.Feasible = false;
      return std::nullopt;
    }
    deps::DepSplit S;
    S.Level = Lvl.Level;
    for (unsigned L = 0; L != Common; ++L) {
      deps::DirectionElem Elem;
      Elem.Range = Lvl.range(L, Ctx);
      S.Dir.push_back(Elem);
    }
    S.Refined = true;
    return S;
  }

  /// Rewrites the dependence's splits from the levels' new splits.
  /// Returns true if anything changed.
  bool replaceSplits(std::vector<std::optional<deps::DepSplit>> Splits) {
    std::vector<deps::DepSplit> NewSplits;
    for (std::optional<deps::DepSplit> &S : Splits)
      if (S)
        NewSplits.push_back(std::move(*S));

    bool Same = NewSplits.size() == Dep.Splits.size();
    for (unsigned I = 0; Same && I != NewSplits.size(); ++I) {
      Same = NewSplits[I].Level == Dep.Splits[I].Level;
      for (unsigned L = 0; Same && L != Common; ++L) {
        const IntRange &X = NewSplits[I].Dir[L].Range;
        const IntRange &Y = Dep.Splits[I].Dir[L].Range;
        Same = X.HasMin == Y.HasMin && X.HasMax == Y.HasMax &&
               (!X.HasMin || X.Min == Y.Min) &&
               (!X.HasMax || X.Max == Y.Max);
      }
    }
    if (Same)
      return false;
    Dep.Splits = std::move(NewSplits);
    return true;
  }

private:
  struct CachedPieces {
    std::vector<Problem> Pieces;
    bool Poisoned = false;
  };

  /// LHS pieces of every level: exists i with A(i) << B(k) under the
  /// level's restraint, projected onto (k, Sym). They depend only on the
  /// level (never on pins), so both passes share them.
  void buildLHSPieces(OmegaContext &Ctx) {
    LHS.resize(Levels.size());
    Ctx.forEachIndependent(
        Levels.size(), [&](std::size_t Idx, OmegaContext &Sub) {
          Problem P = Space.base();
          Space.addIterationSpace(P, 0);
          Space.addIterationSpace(P, 2);
          Space.addSubscriptsEqual(P, 0, 2);
          Space.addPrecedesAtLevel(P, 0, 2, Levels[Idx].Level);
          ProjectionResult R =
              projectOntoMask(P, keepAllBut(P, Space, 0), Sub,
                              ProjectOptions{/*RemoveRedundant=*/false,
                                             /*DropEmptyPieces=*/true});
          LHS[Idx].Poisoned = R.Poisoned;
          LHS[Idx].Pieces = std::move(R.Pieces);
        });
  }

  /// Computes Delta_L's range in every feasible level that does not know
  /// it yet.
  void computeRanges(unsigned L, OmegaContext &Ctx) {
    std::vector<LevelProblem *> Todo;
    for (LevelProblem &Lvl : Levels)
      if (Lvl.Feasible && !Lvl.Known[L])
        Todo.push_back(&Lvl);
    Ctx.forEachIndependent(Todo.size(), [&](std::size_t T, OmegaContext &Sub) {
      Todo[T]->range(L, Sub);
    });
  }

  /// The least minimum of Delta_L over the feasible levels, whose ranges
  /// are known; none when some level has no minimum. Empty levels are
  /// dropped.
  std::optional<int64_t> leastMinimum(unsigned L) {
    std::optional<int64_t> Min;
    for (LevelProblem &Lvl : Levels) {
      if (!Lvl.Feasible)
        continue;
      const IntRange &R = *Lvl.Known[L];
      if (R.Empty) {
        Lvl.Feasible = false;
        continue;
      }
      if (!R.HasMin)
        return std::nullopt;
      if (!Min || R.Min < *Min)
        Min = R.Min;
    }
    return Min;
  }

  /// RHS pieces: exists j in [A] at the fixed distances D from k, with
  /// A(j) << B(k), projected onto (k, Sym), one precedes case at a time.
  std::vector<Problem> buildRHSPieces(const std::vector<int64_t> &D,
                                      OmegaContext &Ctx) const {
    Problem RHS0 = Space.base();
    Space.addIterationSpace(RHS0, 1);
    Space.addSubscriptsEqual(RHS0, 1, 2);
    for (unsigned L = 0; L != D.size(); ++L) {
      // k_L - j_L == D[L].
      Constraint &Row = RHS0.addRow(ConstraintKind::EQ);
      Row.setCoeff(Space.iterVar(2, L), 1);
      Row.setCoeff(Space.iterVar(1, L), -1);
      Row.setConstant(-D[L]);
    }
    std::vector<Problem> Cases = Space.precedesCases(RHS0, 1, 2);
    std::vector<ProjectionResult> Projected(Cases.size());
    Ctx.forEachIndependent(Cases.size(), [&](std::size_t I, OmegaContext &Sub) {
      Projected[I] = projectOntoMask(Cases[I], keepAllBut(Cases[I], Space, 1),
                                     Sub,
                                     ProjectOptions{/*RemoveRedundant=*/false,
                                                    /*DropEmptyPieces=*/true});
    });
    std::vector<Problem> Pieces;
    for (ProjectionResult &R : Projected) {
      if (R.Poisoned)
        return {}; // conservative: the candidate fails verification
      for (Problem &Piece : R.Pieces)
        Pieces.push_back(std::move(Piece));
    }
    return Pieces;
  }

  DepSpace Space;
  deps::Dependence &Dep;
  unsigned Common = 0;
  std::vector<LevelProblem> Levels;
  std::vector<CachedPieces> LHS; ///< per level, built once by pass 1
  std::vector<int64_t> Prefix;   ///< the distances pass 1 pinned
  /// The extension pass 1 could not prove and its right-hand side; pass 2
  /// tries the same distances again for a single level's receivers.
  std::vector<int64_t> Unproved;
  std::vector<Problem> UnprovedRHS;
};

} // namespace

RefineResult analysis::refineDependence(const ir::AnalyzedProgram &AP,
                                        const ir::Access &A,
                                        const ir::Access &B,
                                        deps::Dependence &Dep,
                                        OmegaContext &Ctx) {
  RefineResult Result;
  assert(A.IsWrite && "refinement applies to dependences from a write");
  obs::ScopedSpan Span(Ctx.Trace, obs::SpanKind::Refine);
  if (Dep.Splits.empty())
    return Result;
  // Refinement claims a definite more-recent source, which needs
  // must-alias subscript reasoning; rank-mismatched references only may
  // alias.
  if (A.Subscripts.size() != B.Subscripts.size())
    return Result;

  Refiner R(AP, A, B, Dep);
  if (R.numCommonLoops() == 0)
    return Result; // nothing to refine without common loops

  // Pass 1 (Section 4.4's generator over the whole dependence): a refined
  // vector may kill entire splits, e.g. Example 4's (0+,1) -> (0,1).
  unsigned WholeFixed = R.runWholePass(Result, Ctx);
  Result.LoopsFixed = WholeFixed;

  // Pass 2 (per restraint vector): when the whole-dependence pass stalls,
  // each split can still be refined within its own restraint -- Example
  // 5's L1-carried split tightens to (1,1) while the L2 split keeps
  // (0,1), i.e. the paper's partial result (0:1,1). From here on the
  // levels are independent, so each runs its pass 2 and builds its new
  // split as one sub-task.
  bool Stalled = WholeFixed < R.numCommonLoops();
  std::vector<std::optional<deps::DepSplit>> Splits(R.numLevels());
  std::vector<char> Used(R.numLevels(), 0);
  Ctx.forEachIndependent(R.numLevels(), [&](std::size_t I, OmegaContext &Sub) {
    Used[I] = Stalled && R.refineLevel(static_cast<unsigned>(I), Sub);
    Splits[I] = R.levelSplit(static_cast<unsigned>(I), Sub);
  });
  Result.UsedGeneralTest |= std::count(Used.begin(), Used.end(), 1) != 0;

  if (R.replaceSplits(std::move(Splits)))
    Result.Refined = true;
  return Result;
}
