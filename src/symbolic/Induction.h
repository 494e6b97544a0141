//===- symbolic/Induction.h - Scalar recurrence recognition ---------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recognition of monotone scalar recurrences ("k := k + j"), the
/// "non-linear induction variable recognition and summations" extension
/// Section 5 invokes to handle Example 11 (program s141 of [LCD91], which
/// no compiler in that study vectorized). A scalar all of whose writes
/// are accumulations with a provably non-negative (or positive) addend is
/// monotone over execution order; the symbolic analysis instantiates that
/// as linear facts between uninterpreted reads of the scalar, which is
/// enough to disprove the false a(k) self-dependences.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_SYMBOLIC_INDUCTION_H
#define OMEGA_SYMBOLIC_INDUCTION_H

#include "ir/Sema.h"
#include "omega/OmegaContext.h"

#include <map>
#include <string>
#include <vector>

namespace omega {
namespace symbolic {

/// Monotonicity of one recognized scalar over execution order.
enum class Monotonicity : uint8_t {
  Unknown,
  Increasing,         ///< every update adds e >= 0
  StrictlyIncreasing, ///< every update adds e >= 1
  Decreasing,         ///< every update adds e <= 0
  StrictlyDecreasing, ///< every update adds e <= -1
};

struct ScalarRecurrence {
  Monotonicity Direction = Monotonicity::Unknown;
  /// The accesses that write the scalar (all are recognized updates).
  std::vector<const ir::Access *> Updates;
};

struct InductionInfo {
  std::map<std::string, ScalarRecurrence> Scalars;

  const ScalarRecurrence *recurrenceOf(const std::string &Name) const {
    auto It = Scalars.find(Name);
    return It == Scalars.end() ? nullptr : &It->second;
  }
};

/// Scans the program for scalars whose every write is an accumulation
/// with an addend of provable sign (decided with the Omega test under the
/// update's iteration space, charged to \p Ctx).
InductionInfo recognizeInductions(const ir::AnalyzedProgram &AP,
                                  OmegaContext &Ctx);

} // namespace symbolic
} // namespace omega

#endif // OMEGA_SYMBOLIC_INDUCTION_H
