//===- transform/Apply.h - Applying loop transformations ------------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The transformations Section 1 motivates: their legality (interchange
/// here, DOALL and distribution read from each loop's PDG in
/// transform/Pdg.h), the AST rewrites (loop interchange, pipeline
/// staging) and the reports. The test suite verifies semantic
/// preservation by interpreting the program before and after and
/// comparing final memory.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_TRANSFORM_APPLY_H
#define OMEGA_TRANSFORM_APPLY_H

#include "analysis/Driver.h"
#include "ir/AST.h"
#include "transform/Pipeline.h"

#include <string>

namespace omega {
namespace transform {

/// Result of attempting an AST rewrite.
enum class ApplyResult {
  Applied,
  NotPerfectlyNested, ///< the outer loop's body is not exactly the inner
  BoundsDependOnOuter, ///< triangular bounds: a pure header swap is wrong
  NoSuchLoops,
  BadPlan, ///< pipeline plan invalid or temp names collide
};

const char *applyResultName(ApplyResult R);

/// May the loops at depths (Outer, Outer+1) -- 0-based, for the loop nest
/// enclosing both endpoints of every dependence -- be interchanged?
/// Checks that no live dependence has direction (+, -) at those levels
/// (swapping would reverse its orientation).
bool canInterchange(const analysis::AnalysisResult &R,
                    const ir::LoopInfo *Outer, const ir::LoopInfo *Inner);

/// Swaps the headers of the perfectly nested pair (OuterVar directly
/// containing InnerVar). Rectangular bounds only; legality (dependence
/// directions) is the caller's job -- pair with canInterchange().
ApplyResult interchange(ir::Program &P, const std::string &OuterVar,
                        const std::string &InnerVar);

/// Human-readable report of all transformation opportunities: each
/// loop's DOALL verdict, adjacent-loop interchange legality and the loops
/// that distribute (omega-analyze --transforms). A loop is named by its
/// variable, plus its first statement label ("L1@2") where another loop
/// has the same variable and depth.
std::string transformReport(const ir::AnalyzedProgram &AP,
                            const analysis::AnalysisResult &R);

/// Renders the program with "parallel for" on every loop the analysis
/// proves carries no live dependence (the DOALL schedule).
std::string renderParallelSchedule(const ir::AnalyzedProgram &AP,
                                   const analysis::AnalysisResult &R);

/// Suffix of the per-iteration expanded copies applyPipeline introduces
/// for privatized arrays ("t" becomes "t@p"). '@' cannot appear in a
/// parsed identifier, so transformed programs can never collide with
/// source arrays; equivalence checks compare final memory on every array
/// except these scratch copies.
inline constexpr const char PipelineTempSuffix[] = "@p";

/// True for the scratch arrays applyPipeline introduces.
bool isPipelineTempArray(const std::string &Name);

/// Rewrites loop \p Plan.Loop of \p P (a fresh parse of the analyzed
/// source) into the staged schedule: one consecutive loop per stage, each
/// keeping exactly its stage's statements (nested loops are filtered per
/// stage and dropped when emptied). Arrays in Plan.PrivatizedArrays are
/// expanded per-iteration -- every access X(subs) becomes
/// X@p(loopvar, subs) -- and each write additionally keeps a duplicate
/// store to the original array so final memory outside the scratch copies
/// is byte-identical to the unstaged program. Stage order is topological
/// over every live dependence, so executing the staged program preserves
/// the original semantics; oracle/ScheduleOracle.h proves it by running
/// both under the interpreter.
ApplyResult applyPipeline(ir::Program &P, const PipelinePlan &Plan);

/// Renders every loop's pipeline plan as executable staged loops, with
/// "stage k (parallel xN | sequential):" headers (omega-analyze
/// --pipeline). Loops without a valid plan are listed as such.
std::string renderPipelineSchedule(const ir::AnalyzedProgram &AP,
                                   const analysis::AnalysisResult &R);

} // namespace transform
} // namespace omega

#endif // OMEGA_TRANSFORM_APPLY_H
