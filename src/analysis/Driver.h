//===- analysis/Driver.h - Whole-program Section 4 pipeline --------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The driver runs the paper's Section 4 pipeline over a whole program:
///
///  1. compute all output dependences (they feed the quick tests),
///  2. for each array read, compute the flow dependences into it,
///     attempting refinement and then coverage on each,
///  3. use covering dependences to kill dependences from writes that
///     completely precede the cover,
///  4. check the remaining flow dependences pairwise for killing.
///
/// Anti dependences are computed unrefined (as in the paper's
/// implementation, which focused on flow dependences). Per-pair and
/// per-kill timing records feed the Figure 6/7 benchmark harness.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_ANALYSIS_DRIVER_H
#define OMEGA_ANALYSIS_DRIVER_H

#include "deps/DependenceAnalysis.h"

namespace omega {
namespace analysis {

struct DriverOptions {
  bool QuickTests = true; ///< Section 4.5 screens
  bool Refine = true;
  bool Cover = true;
  bool Kill = true;
  /// Also run the Section 4.3 terminating analysis and kill dependences
  /// out of terminated accesses (an extension the paper describes but its
  /// implementation did not enable).
  bool Terminate = false;
};

/// Per (write, read) array-pair record for the Figure 6 cost classes.
struct PairRecord {
  const ir::Access *Write = nullptr;
  const ir::Access *Read = nullptr;
  bool HasFlow = false;
  bool UsedGeneralTest = false; ///< refinement/coverage consulted Omega
  bool SplitVectors = false;    ///< dependence split into several vectors
  double StandardSecs = 0;      ///< plain dependence computation
  double ExtendedSecs = 0;      ///< plus refinement and coverage
};

/// Per kill-candidate record (Figure 6 right).
struct KillRecord {
  const ir::Access *From = nullptr;
  const ir::Access *Killer = nullptr;
  const ir::Access *To = nullptr;
  bool UsedOmega = false; ///< general test ran (vs. quick-test resolution)
  bool Killed = false;
  double Secs = 0;
};

struct AnalysisResult {
  std::vector<deps::Dependence> Flow;
  std::vector<deps::Dependence> Anti;
  std::vector<deps::Dependence> Output;
  std::vector<PairRecord> Pairs;
  std::vector<KillRecord> Kills;

  /// Renders Figure 3/4-style tables: rows "FROM -> TO dir status".
  std::string liveFlowTable() const;
  std::string deadFlowTable() const;
};

/// Legacy serial entry point, implemented in the engine library on top of
/// engine::DependenceEngine (link omega_engine to use it). Runs with one
/// job and no reuse; the run's Omega stats are dropped. New code, and any
/// caller that reads counters, should construct a DependenceEngine and
/// pass an engine::AnalysisRequest instead (its result carries Stats).
AnalysisResult analyzeProgram(const ir::AnalyzedProgram &AP,
                              const DriverOptions &Opts = DriverOptions());

} // namespace analysis
} // namespace omega

#endif // OMEGA_ANALYSIS_DRIVER_H
