//===- transform/Pdg.h - Statement-level program dependence graph ---------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The statement-level program dependence graph (PDG) of one loop, built
/// over the kill-aware dependence table. It is the one per-loop
/// dependence graph: the DOALL verdicts (loopFacts), loop distribution
/// (distributeLoop) and the PS-DSWP pipeline partitioner
/// (transform/Pipeline.h) all read their answers from its edges.
///
/// Nodes are the statements whose access nests include the loop L. Each
/// dependence whose endpoints are both inside L yields edges, one per
/// class of its splits relative to L (one classifier, shared with
/// isPrivatizable, places a split against a loop):
///
///  * splits carried by a loop *outside* L (level in [1, depth(L)]) order
///    whole L-instances and are dropped;
///  * a split at level depth(L)+1 is carried by L (`LoopCarried`);
///  * level 0 and deeper levels stay within one L-iteration.
///
/// Edges keep their liveness: killed flow splits become `Dead` edges
/// (kept so that the plans can name the kills they rely on), and
/// loop-carried anti dependences on privatizable arrays become
/// `Removable` edges -- per-iteration renaming (what applyPipeline
/// performs) eliminates them, which is the paper's "false data
/// dependence" thesis applied to storage. The partitioner plans over
/// live, non-removable edges only.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_TRANSFORM_PDG_H
#define OMEGA_TRANSFORM_PDG_H

#include "analysis/Driver.h"

#include <string>
#include <vector>

namespace omega {
namespace transform {

/// Depth of loop \p L among the loops common to both endpoints of \p D
/// (0-based), or -1 when L does not enclose both.
int commonLoopDepth(const deps::Dependence &D, const ir::LoopInfo *L);

/// Is \p Array privatizable with respect to loop \p L: does every read of
/// the array inside L receive its value from a write in the same
/// iteration of L (so each iteration can use a private copy)?
bool isPrivatizable(const ir::AnalyzedProgram &AP,
                    const analysis::AnalysisResult &R,
                    const std::string &Array, const ir::LoopInfo *L);

/// The strongly connected components of a directed graph.
struct SCCs {
  unsigned NumComps = 0;
  /// Node -> component, numbered in topological order: every edge between
  /// two components runs from the lower number to the higher.
  std::vector<unsigned> CompOf;
};

/// The SCCs of the graph whose node V has the successors \p Adj[V]
/// (iterative Tarjan).
SCCs stronglyConnectedComponents(
    const std::vector<std::vector<unsigned>> &Adj);

/// One PDG edge (one contributing dependence split class).
struct PdgEdge {
  unsigned Src = 0; ///< node index into Pdg::StmtLabels
  unsigned Dst = 0; ///< node index into Pdg::StmtLabels
  deps::DepKind Kind = deps::DepKind::Flow;
  bool LoopCarried = false; ///< carried by the PDG's loop itself
  bool Dead = false;        ///< killed/covered flow split ('k'/'c')
  char DeadReason = 0;      ///< 'k' killed, 'c' covered (when Dead)
  bool Removable = false;   ///< carried anti on a privatizable array
  std::string Array;        ///< the array the dependence is on
  /// The dependence the edge comes from (points into the analysis result
  /// the PDG was built from).
  const deps::Dependence *Dep = nullptr;
};

/// The PDG of one loop. Nodes are statement labels in program order;
/// edges carry their liveness/removability classification.
struct Pdg {
  const ir::LoopInfo *Loop = nullptr;
  std::vector<unsigned> StmtLabels; ///< node -> 1-based statement label
  std::vector<PdgEdge> Edges;       ///< all edges, including dead/removable
  /// Arrays whose loop-carried anti dependences are removable: every read
  /// inside the loop is covered in the same iteration (isPrivatizable),
  /// so per-iteration expansion renames the storage apart. Sorted.
  std::vector<std::string> PrivatizedArrays;

  /// Edges the partitioner plans over: live and not removable.
  bool planningEdge(const PdgEdge &E) const {
    return !E.Dead && !E.Removable;
  }
};

/// Builds the PDG of loop \p L from the analysis result \p R.
Pdg buildPdg(const ir::AnalyzedProgram &AP, const analysis::AnalysisResult &R,
             const ir::LoopInfo *L);

/// The DOALL verdicts of one loop, read from its PDG.
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
  /// The dependences carried by this loop that block parallelization.
  std::vector<const deps::Dependence *> Blockers;
};

/// The facts of \p G's loop: its live loop-carried edges block it.
LoopFacts loopFacts(const Pdg &G);

/// The facts of every loop of the program.
std::vector<LoopFacts> analyzeLoops(const ir::AnalyzedProgram &AP,
                                    const analysis::AnalysisResult &R);

/// Loop distribution (fission): the loop's statements grouped into the
/// strongly connected components of its PDG's live edges (removable ones
/// included), in a legal execution order. Each group can become its own
/// loop; a group of one statement with no self edge vectorizes.
struct DistributionGroup {
  std::vector<unsigned> StmtLabels; ///< statements, program order
  bool Cyclic = false; ///< a dependence cycle: must stay together
};
std::vector<DistributionGroup> distributeLoop(const Pdg &G);
inline std::vector<DistributionGroup>
distributeLoop(const ir::AnalyzedProgram &AP,
               const analysis::AnalysisResult &R, const ir::LoopInfo *L) {
  return distributeLoop(buildPdg(AP, R, L));
}

} // namespace transform
} // namespace omega

#endif // OMEGA_TRANSFORM_PDG_H
