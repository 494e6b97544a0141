//===- deps/DependenceAnalysis.h - Pairwise dependence computation --------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Memory-based (unrefined) dependence computation: for each ordered pair
/// of references to one array, build the Omega-test problem -- iteration
/// spaces, subscript equality, execution order by carried level -- decide
/// feasibility, and summarize distances per level. This is the "standard
/// analysis" the paper's Figure 6/7 measurements compare against; the
/// Section 4 extensions live in src/analysis.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_DEPS_DEPENDENCEANALYSIS_H
#define OMEGA_DEPS_DEPENDENCEANALYSIS_H

#include "deps/DepSpace.h"
#include "deps/Dependence.h"
#include "omega/OmegaContext.h"

#include <optional>

namespace omega {
namespace deps {

class DependenceAnalysis {
public:
  /// Analyses run against a context of the analysis's own.
  explicit DependenceAnalysis(const ir::AnalyzedProgram &AP) : AP(AP) {}

  /// The dependence of kind \p Kind from \p Src to \p Dst (references to
  /// the same array), or nullopt when no level is feasible.
  std::optional<Dependence> computeDependence(const ir::Access &Src,
                                              const ir::Access &Dst,
                                              DepKind Kind) const;

  /// Every flow, anti, and output dependence of the program.
  std::vector<Dependence> computeAllDependences() const;

  /// The dependences of one kind.
  std::vector<Dependence> computeDependences(DepKind Kind) const;

private:
  const ir::AnalyzedProgram &AP;
  mutable OmegaContext Ctx; ///< charged with every query; read by no one
};

/// Builds the base problem for an ordered pair: iteration spaces of both
/// instances plus subscript equality (no ordering constraints).
Problem buildPairProblem(const DepSpace &Space);

} // namespace deps
} // namespace omega

#endif // OMEGA_DEPS_DEPENDENCEANALYSIS_H
