//===- symbolic/SymbolicAnalysis.h - Section 5 symbolic dependence tests --===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 5 of the paper: a data dependence may exist only under certain
/// conditions on symbolic variables. This module
///
///  * computes those conditions exactly by projecting the dependence
///    problem onto chosen symbolic variables and taking the gist relative
///    to what is already known (user assertions, in-bounds assumptions):
///    Example 7's "the outer-loop-carried dependence exists iff
///    1 <= x <= 50";
///  * handles index arrays and non-linear terms as uninterpreted symbols,
///    instantiating user-asserted properties (injective, strictly
///    increasing) pairwise: Example 8's "no output dependence if Q is a
///    permutation";
///  * renders the concise user queries the paper's dialog asks when the
///    assertions are not sufficient to rule a dependence out.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_SYMBOLIC_SYMBOLICANALYSIS_H
#define OMEGA_SYMBOLIC_SYMBOLICANALYSIS_H

#include "deps/DepSpace.h"
#include "symbolic/Assertions.h"

#include <optional>
#include <string>
#include <vector>

namespace omega {
namespace symbolic {

/// The conditions (over kept symbolic variables) under which a dependence
/// exists.
struct SymbolicCondition {
  Problem Condition; ///< gist over the kept variables; empty == always
  bool Exact = true; ///< false when a projection splintered
  bool Impossible = false; ///< the dependence cannot exist at all
  std::string Text;  ///< human-readable rendering

  bool isAlways() const {
    return !Impossible && Condition.getNumConstraints() == 0;
  }
};

/// Computes (gist pi(p && q) given pi(p)) for the dependence from \p Src
/// to \p Dst carried at \p Level (0 == loop-independent), where p is what
/// is known (loop bounds, the restraint vector, assertions, in-bounds
/// facts) and q is the dependence condition (subscript equality). The
/// projection keeps exactly the symbolic constants named in
/// \p KeepSymbols. Like every entry point here, it charges its Omega work
/// to \p Ctx.
SymbolicCondition
dependenceCondition(const ir::AnalyzedProgram &AP, const ir::Access &Src,
                    const ir::Access &Dst, unsigned Level,
                    const AssertionDB &DB,
                    const std::vector<std::string> &KeepSymbols,
                    OmegaContext &Ctx);

/// Is a dependence at \p Level from \p Src to \p Dst possible at all given
/// the assertions? Instantiates index-array properties pairwise.
bool dependencePossible(const ir::AnalyzedProgram &AP, const ir::Access &Src,
                        const ir::Access &Dst, unsigned Level,
                        const AssertionDB &DB, OmegaContext &Ctx);

/// One concise question for the user, per Section 5's dialog.
struct UserQuery {
  std::string Array;     ///< the index array involved ("" for scalars)
  std::string Condition; ///< "1 <= a < b <= n" -- when the instances occur
  std::string Offending; ///< "Q[a] = Q[b]" -- what must never happen
  std::string Example;   ///< a concrete offending scenario, e.g. "a = 1, b = 2"
  std::string Text;      ///< the full rendered question
};

/// Generates the queries whose "that never happens" answers would rule out
/// the dependence from \p Src to \p Dst at \p Level.
std::vector<UserQuery> generateQueries(const ir::AnalyzedProgram &AP,
                                       const ir::Access &Src,
                                       const ir::Access &Dst, unsigned Level,
                                       const AssertionDB &DB,
                                       OmegaContext &Ctx);

} // namespace symbolic
} // namespace omega

#endif // OMEGA_SYMBOLIC_SYMBOLICANALYSIS_H
