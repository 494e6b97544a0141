//===- transform/Pipeline.h - PS-DSWP pipeline partitioning ---------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pipeline-stage partitioning of one loop over the SCC-DAG of its PDG,
/// in the PS-DSWP style: condense the live dependence graph with Tarjan's
/// algorithm, mark each SCC parallel when it contains no loop-carried
/// edge (`IsParallel`), pick the heaviest parallel SCC as the pivot,
/// grow the parallel stage into an antichain of mutually unreachable
/// parallel SCCs, then place every remaining SCC before or after it
/// (flexible SCCs join the before side when nothing must run after the
/// parallel stage, the after side otherwise -- the `pivot()` rule).
/// Sequential sides are re-split at topological prefix points while their
/// weight exceeds the parallel stage's per-replica share, bounding the
/// pipeline's bottleneck.
///
/// The cost model is a simple performance estimator: each statement
/// weighs the product of the estimated trip counts of the loops nested
/// inside the partitioned loop around it (constant bounds count exactly,
/// symbolic bounds default to 10), and a stage weighs the sum of its
/// statements.
///
/// Every plan is an executable claim: transform::applyPipeline rewrites
/// the AST into the staged schedule and the oracle in
/// oracle/ScheduleOracle.h interprets it against the original program.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_TRANSFORM_PIPELINE_H
#define OMEGA_TRANSFORM_PIPELINE_H

#include "transform/Pdg.h"

#include <string>
#include <vector>

namespace omega {
namespace transform {

/// One pipeline stage: a set of whole SCCs, executed as its own loop.
struct PipelineStage {
  std::vector<unsigned> StmtLabels; ///< statement labels, ascending
  bool Parallel = false; ///< no loop-carried edge inside the stage
  uint64_t Weight = 0;   ///< estimated work per outer iteration
};

/// A dead or removed dependence edge whose absence the partition relies
/// on: putting it back would coarsen the plan (merge the parallel stage
/// into a cycle or serialize it). Reasons: 'k' killed, 'c' covered
/// (Section 4 flow kills), 'p' privatization (removed carried anti).
struct EnablingKill {
  unsigned SrcLabel = 0;
  unsigned DstLabel = 0;
  deps::DepKind Kind = deps::DepKind::Flow;
  char Reason = 0;
};

/// Upper bound on emitted stages (rebalancing stops at this count).
inline constexpr unsigned MaxPipelineStages = 8;

/// The partition of one loop. `valid()` plans have >= 2 stages in a
/// topological order of the SCC-DAG: executing the stages as consecutive
/// loops (fission) preserves every live dependence.
struct PipelinePlan {
  const ir::LoopInfo *Loop = nullptr;
  std::vector<PipelineStage> Stages;
  /// Arrays renamed per-iteration when the plan is applied (from the PDG).
  std::vector<std::string> PrivatizedArrays;
  /// The kills/removals that enabled the partition's parallel stage.
  std::vector<EnablingKill> EnablingKills;
  /// SCCs of the planning graph.
  unsigned Sccs = 0;
  uint64_t TotalWeight = 0;
  /// TotalWeight / bottleneck stage weight (parallel stages contribute
  /// their per-replica share, Weight / 4), the classic DSWP speedup
  /// estimate.
  double EstimatedSpeedup = 1.0;

  bool valid() const { return Stages.size() >= 2; }
  bool hasParallelStage() const {
    for (const PipelineStage &S : Stages)
      if (S.Parallel)
        return true;
    return false;
  }
};

/// Partitions the loop of PDG \p G into pipeline stages over its planning
/// edges. The partition without the paper's Section 4 machinery is the
/// plan of a copy of \p G with every edge made live and non-removable.
PipelinePlan planPipeline(const ir::AnalyzedProgram &AP, const Pdg &G);

/// Per-loop pipeline facts: the PDG summary plus the plan.
struct PipelineFacts {
  const ir::LoopInfo *Loop = nullptr;
  unsigned Statements = 0; ///< PDG nodes
  unsigned Sccs = 0;       ///< Plan.Sccs
  PipelinePlan Plan;
};

/// Builds the PDG and plans a pipeline for every loop of the program.
std::vector<PipelineFacts>
analyzePipelines(const ir::AnalyzedProgram &AP,
                 const analysis::AnalysisResult &R);

} // namespace transform
} // namespace omega

#endif // OMEGA_TRANSFORM_PIPELINE_H
