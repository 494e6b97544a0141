//===- omega/Satisfiability.cpp -------------------------------------------===//
//
// Part of the omega-deps project.
//
//===----------------------------------------------------------------------===//

#include "omega/Satisfiability.h"

#include "obs/Trace.h"
#include "omega/EqElimination.h"
#include "omega/FourierMotzkin.h"
#include "omega/Projection.h"

#include <limits>
#include <optional>

using namespace omega;

namespace {

/// Direct integer check when at most one variable remains: the tightest
/// integer lower bound must not exceed the tightest integer upper bound.
bool checkSingleVar(const Problem &P, VarId V) {
  bool HasLo = false, HasHi = false;
  int64_t Lo = 0, Hi = 0;
  for (const Constraint &Row : P.constraints()) {
    assert(Row.isInequality() && "equalities must be eliminated first");
    int64_t C = Row.getCoeff(V);
    int64_t K = Row.getConstant();
    if (C > 0) {
      // C*V + K >= 0  =>  V >= ceil(-K / C)
      int64_t Bound = ceilDiv(-K, C);
      if (!HasLo || Bound > Lo)
        Lo = Bound;
      HasLo = true;
    } else if (C < 0) {
      // C*V + K >= 0  =>  V <= floor(K / -C)
      int64_t Bound = floorDiv(K, -C);
      if (!HasHi || Bound < Hi)
        Hi = Bound;
      HasHi = true;
    }
  }
  return !HasLo || !HasHi || Lo <= Hi;
}

/// Returns the variable whose elimination looks cheapest, or -1 if no
/// variable appears in any constraint.
VarId chooseVariable(const Problem &P) {
  VarId Best = -1;
  FMCost BestCost;
  for (VarId V = 0, E = P.getNumVars(); V != E; ++V) {
    if (!P.involves(V))
      continue;
    FMCost Cost = estimateEliminationCost(P, V);
    if (Best < 0 || Cost < BestCost) {
      Best = V;
      BestCost = Cost;
    }
  }
  return Best;
}

unsigned countActiveVars(const Problem &P, VarId &OnlyVar) {
  unsigned N = 0;
  OnlyVar = -1;
  for (VarId V = 0, E = P.getNumVars(); V != E; ++V)
    if (P.involves(V)) {
      ++N;
      OnlyVar = V;
    }
  return N;
}

bool isSatImpl(Problem &P, const SatOptions &Opts, OmegaContext &Ctx,
               unsigned Depth) {
  assert(Depth < 512 && "runaway Omega test recursion");

  // Once arithmetic has saturated this computation is unreliable; unwind
  // immediately (the wrapper reports the conservative answer).
  if (arithOverflowFlag())
    return true;

  if (solveEqualities(P, Ctx) == SolveResult::False)
    return false;
  // Satisfiability never reads VarIds back out, so every dead column
  // (mod-hat wildcards, eliminated variables) can be dropped: shorter rows
  // keep the splinter/shadow copies below on the inline path.
  P.compactDeadColumns();

  while (true) {
    if (arithOverflowFlag())
      return true;
    VarId OnlyVar;
    unsigned Active = countActiveVars(P, OnlyVar);
    if (Active == 0)
      return true; // normalize() removed all rows consistently
    if (Active == 1)
      return checkSingleVar(P, OnlyVar);

    VarId Z = chooseVariable(P);
    uint32_t SizeVars = static_cast<uint32_t>(P.getNumVars());
    uint32_t SizeRows = static_cast<uint32_t>(P.constraints().size());
    // P is dead after this call (reassigned or abandoned), so the last
    // splinter may take its storage; real-shadow-only mode skips the dark
    // shadow and splinter materialization it would never look at.
    FMResult R = [&] {
      obs::ScopedSpan FMSpan(Ctx.Trace, obs::SpanKind::FMEliminate, SizeVars,
                             SizeRows);
      return fourierMotzkinEliminate(std::move(P), Z,
                                     Opts.Mode == SatMode::RealShadowOnly
                                         ? FMParts::RealShadowOnly
                                         : FMParts::All);
    }();

    if (R.Exact || Opts.Mode == SatMode::RealShadowOnly) {
      ++Ctx.Stats.ExactEliminations;
      P = std::move(R.RealShadow);
      if (P.normalize() == Problem::NormalizeResult::False)
        return false;
      // normalize() may synthesize equalities from opposed inequalities.
      if (P.getNumEQs() != 0) {
        if (solveEqualities(P, Ctx) == SolveResult::False)
          return false;
        P.compactDeadColumns();
      }
      continue;
    }

    ++Ctx.Stats.InexactEliminations;
    if (!isSatImpl(R.RealShadow, Opts, Ctx, Depth + 1)) {
      ++Ctx.Stats.RealShadowDecided;
      if (Ctx.Trace)
        Ctx.Trace->decision("real-shadow: unsatisfiable", SizeVars, SizeRows);
      return false;
    }
    if (isSatImpl(R.DarkShadow, Opts, Ctx, Depth + 1)) {
      ++Ctx.Stats.DarkShadowDecided;
      if (Ctx.Trace)
        Ctx.Trace->decision("dark-shadow: satisfiable", SizeVars, SizeRows);
      return true;
    }
    for (Problem &Splinter : R.Splinters) {
      ++Ctx.Stats.SplintersExplored;
      obs::ScopedSpan SpSpan(Ctx.Trace, obs::SpanKind::Splinter,
                             static_cast<uint32_t>(Splinter.getNumVars()),
                             static_cast<uint32_t>(Splinter.constraints().size()));
      if (isSatImpl(Splinter, Opts, Ctx, Depth + 1))
        return true;
    }
    return false;
  }
}

} // namespace

bool omega::isSatisfiable(Problem P, OmegaContext &Ctx,
                          const SatOptions &Opts) {
  // Open the span before bumping the call counter so the span's own
  // delta includes this call (top-level spans must sum to the context
  // counters).
  obs::ScopedSpan Span(Ctx.Trace, obs::SpanKind::Sat,
                       static_cast<uint32_t>(P.getNumVars()),
                       static_cast<uint32_t>(P.constraints().size()));
  ++Ctx.Stats.SatisfiabilityCalls;

  OverflowScope Scope;
  bool Result = isSatImpl(P, Opts, Ctx, 0);
  // Coefficient blowup: the computation is unreliable, so answer with the
  // conservative "maybe satisfiable" every client treats as the safe
  // direction (dependences assumed, implications unproven).
  if (Scope.overflowed())
    return true;
  return Result;
}

/// Exact membership test: evaluates every row of \p P at \p Point using
/// wide intermediates, so it cannot itself saturate.
static bool satisfiesAllRows(const Problem &P,
                             const std::vector<int64_t> &Point) {
  for (const Constraint &Row : P.constraints()) {
    __int128 Sum = Row.getConstant();
    for (VarId V = 0, E = Row.getNumVars(); V != static_cast<VarId>(E); ++V)
      Sum += static_cast<__int128>(Row.getCoeff(V)) * Point[V];
    if (Row.isEquality() ? Sum != 0 : Sum < 0)
      return false;
  }
  return true;
}

std::optional<std::vector<int64_t>> omega::findSolution(const Problem &P,
                                                        OmegaContext &Ctx) {
  if (!isSatisfiable(P, Ctx))
    return std::nullopt;

  Problem Work = P;
  std::vector<int64_t> Point(P.getNumVars(), 0);
  for (VarId V = 0, E = P.getNumVars(); V != static_cast<VarId>(E); ++V) {
    if (!Work.involves(V))
      continue; // unconstrained given earlier pins: 0 works
    // The exact projected range of V; its closed endpoints are members,
    // so pinning one cannot lose satisfiability. Under coefficient
    // saturation both the range and the SAT verdict above are unreliable
    // (SAT is the conservative answer), so every candidate is re-checked
    // by pinning, and a refused candidate falls through to the next one
    // instead of asserting.
    IntRange R = computeVarRange(Work, V, Ctx);
    if (R.Empty)
      return std::nullopt; // saturation artifact; no trustworthy value

    auto TryPin = [&](int64_t Candidate) {
      Problem Pinned = Work;
      Pinned.addEQ({{V, 1}}, -Candidate);
      if (!isSatisfiable(Pinned, Ctx))
        return false;
      Point[V] = Candidate;
      Work = std::move(Pinned);
      return true;
    };

    bool Found = false;
    if (R.HasMin)
      Found = TryPin(R.Min);
    if (!Found && R.HasMax)
      Found = TryPin(R.Max);
    if (!Found) {
      // Unbounded both ways, or an endpoint the re-check refused: probe
      // small magnitudes (a stride can make 0 a non-member, but some
      // small multiple is one).
      for (int64_t Probe = 0; Probe < 4096 && !Found; ++Probe) {
        for (int64_t Candidate : {Probe, -Probe}) {
          if (TryPin(Candidate)) {
            Found = true;
            break;
          }
        }
      }
    }
    if (!Found)
      return std::nullopt;
  }
  // Final gate: the point must satisfy every original row exactly. This
  // catches any saturation-induced conservative SAT upstream, so callers
  // can trust a returned witness unconditionally.
  if (!satisfiesAllRows(P, Point))
    return std::nullopt;
  return Point;
}
