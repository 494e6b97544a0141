//===- omega/Projection.cpp -----------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "omega/Projection.h"

#include "obs/Trace.h"
#include "omega/EqElimination.h"
#include "omega/FourierMotzkin.h"
#include "omega/OmegaContext.h"
#include "omega/Satisfiability.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <string>

using namespace omega;

namespace {

/// Uses the pivot equality to zero variable \p V out of \p Row. For
/// inequalities the row is scaled by the positive factor |pivot coeff| so
/// the direction is preserved.
void clearVarWithPivot(Constraint &Row, const Constraint &Pivot, VarId V) {
  int64_t PC = Pivot.getCoeff(V);
  int64_t RC = Row.getCoeff(V);
  assert(PC != 0 && "pivot must involve the variable");
  if (RC == 0)
    return;
  // Row := |PC| * Row - sign(PC) * RC * Pivot.
  Row.scale(absVal(PC));
  Row.addScaled(Pivot, checkedMul(-signOf(PC), RC));
  if (Pivot.isRed())
    Row.setRed(true);
  assert(Row.getCoeff(V) == 0 && "pivot combination must cancel V");
}

/// Gaussian-style isolation of eliminable variables that remain in mixed
/// equalities after solveEqualities(): each such variable is confined to a
/// single frozen pivot equality and removed from every other row. The
/// pivot variable then represents an existential stride and is kept alive
/// as a wildcard.
void isolateResidualStrides(Problem &P,
                            const std::function<bool(VarId)> &MayEliminate,
                            std::vector<bool> &IsStrideVar) {
  std::vector<Constraint> &Rows = P.constraints();
  std::vector<bool> Frozen(Rows.size(), false);

  for (unsigned I = 0; I != Rows.size(); ++I) {
    if (!Rows[I].isEquality() || Frozen[I])
      continue;
    // Choose the eliminable, not-yet-pivoted variable with the smallest
    // coefficient magnitude.
    VarId Pivot = -1;
    int64_t PivotAbs = 0;
    for (VarId V = 0, E = P.getNumVars(); V != E; ++V) {
      int64_t C = Rows[I].getCoeff(V);
      if (C == 0 || !MayEliminate(V) || IsStrideVar[V])
        continue;
      if (Pivot < 0 || absVal(C) < PivotAbs) {
        Pivot = V;
        PivotAbs = absVal(C);
      }
    }
    if (Pivot < 0)
      continue;

    for (unsigned J = 0; J != Rows.size(); ++J)
      if (J != I && !Frozen[J])
        clearVarWithPivot(Rows[J], Rows[I], Pivot);
    Frozen[I] = true;
    IsStrideVar[Pivot] = true;
    P.setProtected(Pivot, false); // becomes an existential stride variable
  }
}

/// True when \p V may be eliminated and is not an isolated stride. Columns
/// past the stride table are fresh wildcards, never strides yet.
bool isEliminable(const std::function<bool(VarId)> &MayEliminate,
                  const std::vector<bool> &IsStride, VarId V) {
  return MayEliminate(V) &&
         (static_cast<unsigned>(V) >= IsStride.size() || !IsStride[V]);
}

/// Phase A of an elimination step: runs equality substitution, stride
/// isolation, and normalization to a fixpoint, so that afterwards no
/// eliminable non-stride variable appears in any equality. Returns false
/// if the problem is detected unsatisfiable. normalize() can synthesize
/// fresh equalities from opposed inequality pairs, which is why this must
/// iterate.
bool settleEqualities(Problem &P,
                      const std::function<bool(VarId)> &MayEliminate,
                      std::vector<bool> &IsStride, OmegaContext &Ctx) {
  auto Eliminable = [&](VarId V) {
    return isEliminable(MayEliminate, IsStride, V);
  };
  [[maybe_unused]] unsigned Iterations = 0;
  while (true) {
    assert(++Iterations < 1000 && "equality settling failed to converge");
    if (solveEqualities(P, Eliminable, Ctx) == SolveResult::False)
      return false;
    IsStride.resize(P.getNumVars(), false);
    isolateResidualStrides(P, Eliminable, IsStride);
    if (P.normalize() == Problem::NormalizeResult::False)
      return false;
    // normalize() may have merged opposed inequalities into equalities
    // that mention eliminable variables; if so, go around again.
    bool Unsettled = false;
    for (const Constraint &Row : P.constraints()) {
      if (!Row.isEquality())
        continue;
      for (VarId V = 0, E = P.getNumVars(); V != E && !Unsettled; ++V)
        if (Row.involves(V) && Eliminable(V))
          Unsettled = true;
      if (Unsettled)
        break;
    }
    if (!Unsettled)
      return true;
  }
}

/// Drops dead wildcard columns accumulated by mod-hat elimination,
/// renumbering the stride table alongside. Caller VarIds (all below
/// \p FirstTransient) are untouched.
void compactTransients(Problem &P, std::vector<bool> &IsStride,
                       unsigned FirstTransient) {
  std::vector<int> Remap;
  if (!P.compactDeadColumns(FirstTransient, &Remap))
    return;
  std::vector<bool> NewStride(P.getNumVars(), false);
  for (unsigned V = 0, E = Remap.size(); V != E; ++V)
    if (Remap[V] >= 0 && V < IsStride.size() && IsStride[V])
      NewStride[Remap[V]] = true;
  IsStride = std::move(NewStride);
}

/// Finds an eliminable variable (not a stride residual) that still appears
/// in some constraint, preferring cheap/exact eliminations. -1 when none.
VarId chooseVariable(const Problem &P,
                     const std::function<bool(VarId)> &MayEliminate,
                     const std::vector<bool> &IsStride) {
  VarId Best = -1;
  FMCost BestCost;
  for (VarId V = 0, E = P.getNumVars(); V != E; ++V) {
    if (!isEliminable(MayEliminate, IsStride, V) || !P.involves(V))
      continue;
    FMCost Cost = estimateEliminationCost(P, V);
    if (Best < 0 || Cost < BestCost) {
      Best = V;
      BestCost = Cost;
    }
  }
  return Best;
}

/// The canonical "false" conjunction over \p P's columns: 0 >= 1.
Problem makeFalse(const Problem &P) {
  Problem F = P.cloneLayout();
  F.addGEQ({}, -1);
  return F;
}

struct Projector {
  const std::function<bool(VarId)> MayEliminate;
  const ProjectOptions &Opts;
  OmegaContext &Ctx;
  /// Columns below this index are the caller's original variables; their
  /// VarIds must survive into the pieces. Columns at or above it are
  /// wildcards this projection minted and may be compacted once dead.
  const unsigned FirstTransient;
  std::vector<Problem> Pieces;
  bool SawInexact = false;
  /// Kept only when the caller wants Approx: the conjunction a run in which
  /// every step was exact ended with, when it left no piece (an equality
  /// contradiction, or the emptiness check). Such a run ends exactly once,
  /// and there its real shadow is the integer projection, so projectApprox
  /// would rebuild this same conjunction step for step; when the run does
  /// leave a piece, that piece is the conjunction.
  std::optional<Problem> EmptyExactShadow;

  Projector(std::function<bool(VarId)> MayEliminate,
            const ProjectOptions &Opts, OmegaContext &Ctx,
            unsigned FirstTransient)
      : MayEliminate(std::move(MayEliminate)), Opts(Opts), Ctx(Ctx),
        FirstTransient(FirstTransient) {}

  void run(Problem P, std::vector<bool> IsStride, unsigned Depth) {
    assert(Depth < 512 && "runaway projection recursion");
    // Strides already isolated in parent problems keep their status (the
    // IsStride vector travels into splinter copies).
    while (true) {
      if (arithOverflowFlag())
        return; // abandon the piece; the wrapper marks the result poisoned
      if (!settleEqualities(P, MayEliminate, IsStride, Ctx)) {
        if (Opts.WantApprox && !SawInexact)
          EmptyExactShadow = makeFalse(P);
        return;
      }
      compactTransients(P, IsStride, FirstTransient);

      VarId Z = chooseVariable(P, MayEliminate, IsStride);
      if (Z < 0) {
        finishPiece(std::move(P));
        return;
      }
      // Z appears only in inequalities now: settleEqualities() guarantees
      // no equality mentions an eliminable non-stride variable. P itself is
      // dead after the call (reassigned below), so the last splinter may
      // take its storage.
      FMResult R = fourierMotzkinEliminate(std::move(P), Z);
      if (R.Exact) {
        P = std::move(R.RealShadow);
        continue;
      }
      SawInexact = true;
      // Exact union: dark shadow plus the projections of the splinters.
      for (Problem &Splinter : R.Splinters) {
        ++Ctx.Stats.SplintersExplored;
        obs::ScopedSpan SpSpan(
            Ctx.Trace, obs::SpanKind::Splinter,
            static_cast<uint32_t>(Splinter.getNumVars()),
            static_cast<uint32_t>(Splinter.constraints().size()));
        run(std::move(Splinter), IsStride, Depth + 1);
      }
      P = std::move(R.DarkShadow);
    }
  }

  void finishPiece(Problem P) {
    if (Opts.DropEmptyPieces && !isSatisfiable(P, Ctx)) {
      // An integer-empty exact projection still has a real shadow.
      if (Opts.WantApprox && !SawInexact)
        EmptyExactShadow = std::move(P);
      return;
    }
    if (Opts.RemoveRedundant)
      removeRedundantConstraints(P, Ctx);
    Pieces.push_back(std::move(P));
  }
};

/// Real-shadow-only projection: a single conjunction over-approximating the
/// integer projection. Only a run that splintered needs it, so it is never
/// the exact projection.
Problem projectApprox(Problem P, const std::function<bool(VarId)> &MayEliminate,
                      unsigned FirstTransient, OmegaContext &Ctx) {
  std::vector<bool> IsStride(P.getNumVars(), false);
  while (true) {
    if (arithOverflowFlag())
      return P; // unreliable; the wrapper marks the result poisoned
    if (!settleEqualities(P, MayEliminate, IsStride, Ctx))
      return makeFalse(P);
    compactTransients(P, IsStride, FirstTransient);

    VarId Z = chooseVariable(P, MayEliminate, IsStride);
    if (Z < 0)
      return P;

    // Only the real shadow is consumed: skip the dark shadow rows and the
    // splinter problem copies.
    P = std::move(
        fourierMotzkinEliminate(P, Z, FMParts::RealShadowOnly).RealShadow);
  }
}

} // namespace

ProjectionResult omega::projectOntoMask(const Problem &P,
                                        const std::vector<bool> &Keep,
                                        OmegaContext &Ctx,
                                        const ProjectOptions &Opts) {
  assert(Keep.size() == P.getNumVars() && "mask size mismatch");
  // Span first, counter second: the span's own delta must include this
  // call so top-level spans sum to the context counters.
  obs::ScopedSpan Span(Ctx.Trace, obs::SpanKind::Projection,
                       static_cast<uint32_t>(P.getNumVars()),
                       static_cast<uint32_t>(P.constraints().size()));
  ++Ctx.Stats.ProjectionCalls;
  // Snapshot the mask and protection bits: elimination mints fresh
  // wildcards beyond the original variable count, and those are always
  // eliminable.
  std::vector<bool> Protected(P.getNumVars());
  for (VarId V = 0, E = P.getNumVars(); V != E; ++V)
    Protected[V] = P.isProtected(V);
  std::vector<bool> Mask = Keep;
  auto MayEliminate = [Mask, Protected](VarId V) {
    if (static_cast<unsigned>(V) >= Mask.size())
      return true;
    return !Mask[V] || !Protected[V];
  };

  ProjectionResult Result;
  OverflowScope Scope;
  Projector Proj(MayEliminate, Opts, Ctx, P.getNumVars());
  Proj.run(P, std::vector<bool>(P.getNumVars(), false), 0);
  Result.Pieces = std::move(Proj.Pieces);
  if (Opts.WantApprox && !Scope.overflowed()) {
    ProjectionApprox &A = Result.Approx.emplace();
    if (!Proj.SawInexact && !Result.Pieces.empty()) {
      // The exact run's one piece is its conjunction, already polished.
      A.Shadow = Result.Pieces.front();
    } else {
      if (!Proj.SawInexact) {
        assert(Proj.EmptyExactShadow && "an exact run ends exactly once");
        A.Shadow = std::move(*Proj.EmptyExactShadow);
      } else {
        // Only the separate real-shadow elimination builds the conjunction.
        A.Shadow = projectApprox(P, MayEliminate, P.getNumVars(), Ctx);
        A.Exact = false;
      }
      if (Opts.RemoveRedundant && !Scope.overflowed())
        removeRedundantConstraints(A.Shadow, Ctx);
    }
  }
  if (Scope.overflowed()) {
    Result.Poisoned = true;
    // The pieces are abandoned; the unprojected input is still a sound
    // over-approximation (its eliminated columns read as existential), and
    // polishing it would buy nothing.
    if (Opts.WantApprox)
      Result.Approx = ProjectionApprox{P, /*Exact=*/false};
  }
  return Result;
}

ProjectionResult omega::projectOnto(const Problem &P,
                                    const std::vector<VarId> &Keep,
                                    OmegaContext &Ctx,
                                    const ProjectOptions &Opts) {
  std::vector<bool> Mask(P.getNumVars(), false);
  for (VarId V : Keep)
    Mask[V] = true;
  return projectOntoMask(P, Mask, Ctx, Opts);
}

void omega::removeRedundantConstraints(Problem &P, OmegaContext &Ctx) {
  std::vector<Constraint> &Rows = P.constraints();
  for (unsigned I = 0; I < Rows.size();) {
    if (!Rows[I].isInequality()) {
      ++I;
      continue;
    }
    Problem Test = P.cloneLayout();
    for (unsigned J = 0; J != Rows.size(); ++J) {
      if (J == I)
        continue;
      Test.addConstraint(Rows[J]);
    }
    Constraint Neg = Rows[I];
    Neg.negateGEQ();
    Test.addConstraint(Neg);
    if (!isSatisfiable(std::move(Test), Ctx))
      Rows.erase(Rows.begin() + I); // implied by the others
    else
      ++I;
  }
}

namespace {

/// How many values computeVarRange tests one at a time, inward from a
/// bound, before it searches for the lattice end by bisection.
constexpr int ProbeCap = 1 << 12;

/// The least value W = \p Dir * \p V (Dir is +1 or -1) that piece \p P
/// contains with W >= \p From, and W <= \p End when \p HasEnd; nullopt when
/// there is none. Widens a window [From, From + Step) with Step doubling
/// from ProbeCap until the window holds a point, then bisects it: each
/// test asks whether P has a point with Lo <= W <= Hi, so a stride of
/// period s costs O(log s) satisfiability tests.
std::optional<int64_t> firstValueFrom(const Problem &P, VarId V, int64_t Dir,
                                      int64_t From, bool HasEnd, int64_t End,
                                      OmegaContext &Ctx) {
  auto hasPointIn = [&](int64_t Lo, int64_t Hi) {
    Problem Test = P;
    Test.addGEQ({{V, Dir}}, checkedMul(-1, Lo)); // W - Lo >= 0
    Test.addGEQ({{V, -Dir}}, Hi);                // Hi - W >= 0
    return isSatisfiable(std::move(Test), Ctx);
  };
  // Window arithmetic is done wide: From + Step may pass INT64_MAX.
  const __int128 Last = HasEnd ? End : std::numeric_limits<int64_t>::max();
  __int128 Lo = From, Step = ProbeCap;
  __int128 Hi;
  while (true) {
    if (Lo > Last)
      return std::nullopt;
    Hi = std::min(Lo + Step - 1, Last);
    if (hasPointIn(static_cast<int64_t>(Lo), static_cast<int64_t>(Hi)))
      break;
    Lo = Hi + 1;
    Step *= 2;
  }
  while (Lo < Hi) {
    __int128 Mid = Lo + (Hi - Lo) / 2;
    if (hasPointIn(static_cast<int64_t>(Lo), static_cast<int64_t>(Mid)))
      Hi = Mid;
    else
      Lo = Mid + 1;
  }
  return static_cast<int64_t>(Lo);
}

} // namespace

void IntRange::include(const IntRange &O) {
  Exact = Exact && O.Exact;
  if (O.Empty)
    return;
  if (Empty) {
    bool Both = Exact;
    *this = O;
    Exact = Both;
    return;
  }
  if (!O.HasMin)
    HasMin = false;
  else if (HasMin)
    Min = std::min(Min, O.Min);
  if (!O.HasMax)
    HasMax = false;
  else if (HasMax)
    Max = std::max(Max, O.Max);
}

std::string IntRange::toString() const {
  if (Empty)
    return "empty";
  std::string Lo = HasMin ? std::to_string(Min) : "-inf";
  std::string Hi = HasMax ? std::to_string(Max) : "+inf";
  return "[" + Lo + ", " + Hi + "]";
}

IntRange omega::computeVarRange(const Problem &P, VarId V,
                                OmegaContext &Ctx) {
  OverflowScope Scope;
  // Redundant rows cannot move a piece's bounds on V, so none are removed.
  ProjectionResult R =
      projectOnto(P, {V}, Ctx,
                  ProjectOptions{/*RemoveRedundant=*/false,
                                 /*DropEmptyPieces=*/true});
  IntRange Range = computeVarRange(R.Pieces, V, Ctx);
  if (R.Poisoned || Scope.overflowed()) {
    // Unreliable: the only sound range is the fully open one.
    Range.Empty = false;
    Range.HasMin = Range.HasMax = false;
    Range.Exact = false;
  }
  return Range;
}

IntRange omega::computeVarRange(const std::vector<Problem> &Pieces, VarId V,
                                OmegaContext &Ctx) {
  IntRange Range;
  for (const Problem &P : Pieces) {
    IntRange Piece;
    Piece.Empty = false;
    // After projection onto {V} each row is over V alone, possibly plus
    // stride wildcards bound in residual equalities.
    bool HasStride = false;
    bool Pinned = false;
    for (const Constraint &Row : P.constraints()) {
      int64_t C = Row.getCoeff(V);
      if (C == 0)
        continue;
      if (Row.getNumActiveVars() != 1) {
        HasStride = true; // coupled with a stride wildcard
        continue;
      }
      int64_t K = Row.getConstant();
      if (Row.isEquality()) {
        // C*V + K == 0; normalize() guarantees divisibility was checked.
        int64_t Val = -K / C;
        Piece.HasMin = Piece.HasMax = true;
        Piece.Min = Piece.Max = Val;
        Pinned = true;
        break;
      }
      if (C > 0) {
        int64_t B = ceilDiv(-K, C);
        if (!Piece.HasMin || B > Piece.Min) {
          Piece.HasMin = true;
          Piece.Min = B;
        }
      } else {
        int64_t B = floorDiv(K, -C);
        if (!Piece.HasMax || B < Piece.Max) {
          Piece.HasMax = true;
          Piece.Max = B;
        }
      }
    }
    // When V is coupled to a stride, the boundary values derived from the
    // inequalities may miss the lattice; probe inward to the first value
    // the piece actually contains. A stride period up to the probe cap is
    // walked value by value; a wider one is searched by bisection.
    if (HasStride && !Pinned) {
      auto contains = [&](int64_t Val) {
        Problem Test = P;
        Test.addEQ({{V, 1}}, -Val);
        return isSatisfiable(std::move(Test), Ctx);
      };
      if (Piece.HasMin) {
        int Probes = 0;
        while (!contains(Piece.Min) && ++Probes < ProbeCap)
          ++Piece.Min;
        if (Probes == ProbeCap) {
          std::optional<int64_t> Min =
              firstValueFrom(P, V, +1, checkedAdd(Piece.Min, 1),
                             Piece.HasMax, Piece.Max, Ctx);
          if (Min)
            Piece.Min = *Min;
          else
            Piece.Empty = true;
        }
      }
      if (Piece.HasMax && !Piece.Empty) {
        int Probes = 0;
        while (!contains(Piece.Max) && ++Probes < ProbeCap)
          --Piece.Max;
        if (Probes == ProbeCap) {
          // Searched as the least value of -V.
          std::optional<int64_t> NegMax = firstValueFrom(
              P, V, -1, checkedMul(-1, checkedSub(Piece.Max, 1)),
              Piece.HasMin, checkedMul(-1, Piece.Min), Ctx);
          if (NegMax)
            Piece.Max = checkedMul(-1, *NegMax);
          else
            Piece.Empty = true;
        }
      }
    }
    Range.include(Piece);
  }
  return Range;
}
