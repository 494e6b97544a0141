//===- presburger/Decision.h - Deciding the Omega-test subclass ----------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decides satisfiability and validity of Presburger formulas in the
/// subclass the extended Omega test handles (Section 3.2). The procedure
/// eliminates existentials by exact projection (which can leave residual
/// stride wildcards) and negates unions piecewise; pieces whose stride
/// structure is not "simple" (each wildcard confined to one equality)
/// cannot be negated, in which case the answer is "outside the subclass"
/// (std::nullopt), mirroring the paper's informal subclass boundary.
/// Every entry point charges its Omega work to the context \p OC.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_PRESBURGER_DECISION_H
#define OMEGA_PRESBURGER_DECISION_H

#include "omega/OmegaContext.h"
#include "presburger/Formula.h"

#include <optional>
#include <vector>

namespace omega {
namespace pres {

/// Exact disjunction of conjunctions over the context layout (plus
/// wildcards) equivalent to the formula. nullopt when the formula falls
/// outside the supported subclass, or when eliminating a quantifier
/// overflowed.
std::optional<std::vector<Problem>> toDNF(const Formula &F,
                                          const FormulaContext &Ctx,
                                          OmegaContext &OC);

/// Is there an integer assignment of the free variables satisfying \p F?
std::optional<bool> isSatisfiable(const Formula &F, const FormulaContext &Ctx,
                                  OmegaContext &OC);

/// Does \p F hold for every integer assignment of its free variables?
std::optional<bool> isValid(const Formula &F, const FormulaContext &Ctx,
                            OmegaContext &OC);

/// Are the two formulas equivalent (equal truth value at every integer
/// assignment of the context variables)?
std::optional<bool> isEquivalent(const Formula &F, const Formula &G,
                                 const FormulaContext &Ctx, OmegaContext &OC);

/// A satisfying assignment of the context variables (values indexed by
/// VarId), or an empty optional when unsatisfiable; the outer optional is
/// empty when the formula is outside the supported subclass.
std::optional<std::optional<std::vector<int64_t>>>
findAssignment(const Formula &F, const FormulaContext &Ctx, OmegaContext &OC);

} // namespace pres
} // namespace omega

#endif // OMEGA_PRESBURGER_DECISION_H
