//===- oracle/Metamorphic.h - Invariance and monotonicity checks ----------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Metamorphic relations the Omega core and the dependence analyzer must
/// respect, checkable without any ground truth:
///
///  * Problem satisfiability is invariant under renaming (permuting the
///    variable columns), reordering the constraint rows, and multiplying
///    any row by a positive integer.
///
///  * Widening a loop's upper bound can only add iterations, so every
///    memory-based dependence level present before widening must still be
///    present after. (Value-based kills are deliberately NOT checked for
///    monotonicity: new interleaved iterations can kill flows that were
///    live in the narrower nest.)
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_ORACLE_METAMORPHIC_H
#define OMEGA_ORACLE_METAMORPHIC_H

#include "ir/Sema.h"
#include "oracle/ModelOracle.h"

#include <optional>
#include <random>

namespace omega {
namespace oracle {

/// Returns \p P with variable columns permuted: coefficient of old
/// variable V moves to column Perm[V]. \p Perm must be a permutation of
/// 0..NumVars-1. Names and protected flags move with the columns.
Problem permuteVariables(const Problem &P, const std::vector<VarId> &Perm);

/// Returns \p P with the constraint rows in a random order.
Problem shuffleRows(const Problem &P, std::mt19937 &Rng);

/// Returns \p P with every row multiplied by a random factor in
/// [1, MaxFactor] (equalities occasionally by a negative factor, which is
/// also satisfiability-preserving).
Problem scaleRows(const Problem &P, std::mt19937 &Rng, int64_t MaxFactor = 3);

/// Applies all three Problem transformations and checks isSatisfiable
/// agrees with the untransformed verdict on each. Appends mismatches to
/// \p Out.
void checkProblemMetamorphic(const Problem &P, std::mt19937 &Rng,
                             ModelReport &Out, OmegaContext &Ctx);

/// Returns \p P with every loop's upper bound increased by \p Extra, or
/// nullopt when the program has a downward-counting loop (widening the
/// textual upper bound would shrink those).
std::optional<ir::Program> widenLoopBounds(const ir::Program &P,
                                           int64_t Extra);

/// Checks memory-based dependence monotonicity between a program and its
/// widened variant: for matching access pairs, every (kind, level) present
/// in \p Narrow must be present in \p Wide. Accesses are matched by
/// (statement label, read/write, read ordinal). Appends mismatches to
/// \p Out.Mismatches and counts comparisons in \p Out.Checked.
void checkWidenedMonotone(const ir::AnalyzedProgram &Narrow,
                          const ir::AnalyzedProgram &Wide, ModelReport &Out);

} // namespace oracle
} // namespace omega

#endif // OMEGA_ORACLE_METAMORPHIC_H
