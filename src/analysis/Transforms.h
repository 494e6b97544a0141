//===- analysis/Transforms.h - Transformation legality queries ------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The consumers the paper's introduction motivates: transformation
/// legality queries driven by the (refined, kill-aware) dependence
/// information.
///
///  * Parallelization: a loop runs as a DOALL when no live dependence is
///    carried by it. Killing false flow dependences and refining
///    distances is exactly what exposes this.
///  * Interchange: two adjacent loops may be interchanged when no live
///    dependence has a direction vector of the form (..., +, -, ...) at
///    those positions (swapping would reverse its orientation).
///  * Privatization: an array is privatizable in a loop when every read
///    inside is covered loop-independently (the same iteration writes the
///    element first) -- the paper's flagship reason to separate memory-
///    based from value-based flow dependences.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_ANALYSIS_TRANSFORMS_H
#define OMEGA_ANALYSIS_TRANSFORMS_H

#include "analysis/Driver.h"

#include <string>
#include <vector>

namespace omega {
namespace analysis {

/// Depth of loop \p L among the loops common to both endpoints of \p D
/// (0-based), or -1 when L does not enclose both. Splits at levels
/// [1, depth] are carried by loops outside L; level depth+1 is carried by
/// L itself; level 0 and levels beyond depth+1 stay within one iteration
/// of L. Shared by the legality queries here and the pipeline PDG builder
/// in transform/Pdg.h.
int commonLoopDepth(const deps::Dependence &D, const ir::LoopInfo *L);

/// The strongly connected components of a directed graph.
struct SCCs {
  unsigned NumComps = 0;
  /// Node -> component, numbered in topological order: every edge between
  /// two components runs from the lower number to the higher.
  std::vector<unsigned> CompOf;
};

/// The SCCs of the graph whose node V has the successors \p Adj[V]
/// (iterative Tarjan). Shared by loop distribution here and the pipeline
/// planner's SCC-DAG in transform/Pipeline.h.
SCCs stronglyConnectedComponents(
    const std::vector<std::vector<unsigned>> &Adj);

/// Per-loop transformation facts derived from one analysis result.
struct LoopFacts {
  const ir::LoopInfo *Loop = nullptr;
  /// No live dependence (flow, anti, or output) is carried by this loop.
  bool Parallelizable = false;
  /// No live *flow* dependence is carried: anti/output (storage)
  /// dependences can be removed by privatization, renaming, or array
  /// expansion, so this is the paper's "parallelizable once storage is
  /// fixed" verdict -- exactly why accurate flow information matters
  /// (Section 1).
  bool FlowParallelizable = false;
  /// Same, but ignoring dead (killed/covered) flow splits would NOT have
  /// been enough -- i.e. the Section 4 analyses made the difference.
  bool ParallelizableOnlyAfterKills = false;
  /// The dependences carried by this loop that block parallelization.
  std::vector<const deps::Dependence *> Blockers;
};

/// Computes the per-loop facts for every loop of the program.
std::vector<LoopFacts> analyzeLoops(const ir::AnalyzedProgram &AP,
                                    const AnalysisResult &R);

/// May the loops at depths (Outer, Outer+1) -- 0-based, for the loop nest
/// enclosing both endpoints of every dependence -- be interchanged?
/// Checks that no live dependence has direction (+, -) at those levels.
bool canInterchange(const AnalysisResult &R, const ir::LoopInfo *Outer,
                    const ir::LoopInfo *Inner);

/// Is \p Array privatizable with respect to loop \p L: does every read of
/// the array inside L receive its value from a write in the same
/// iteration of L (so each iteration can use a private copy)?
bool isPrivatizable(const ir::AnalyzedProgram &AP, const AnalysisResult &R,
                    const std::string &Array, const ir::LoopInfo *L);

/// Loop distribution (fission): the statements directly or indirectly
/// inside loop \p L, grouped into the strongly connected components of
/// the dependence graph restricted to L (carried-by-L or inside-L
/// loop-independent edges), in a legal execution order. Each group can
/// become its own loop; a group of one statement with no self-carried
/// dependence vectorizes.
struct DistributionGroup {
  std::vector<unsigned> StmtLabels; ///< statements, program order
  bool Cyclic = false; ///< a dependence cycle: must stay together
};
std::vector<DistributionGroup> distributeLoop(const ir::AnalyzedProgram &AP,
                                              const AnalysisResult &R,
                                              const ir::LoopInfo *L);

/// Human-readable report of all transformation opportunities.
std::string transformReport(const ir::AnalyzedProgram &AP,
                            const AnalysisResult &R);

} // namespace analysis
} // namespace omega

#endif // OMEGA_ANALYSIS_TRANSFORMS_H
