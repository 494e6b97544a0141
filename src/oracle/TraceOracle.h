//===- oracle/TraceOracle.h - Execution-trace dependence ground truth -----===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ground truth for the dependence analyzer derived from real execution:
/// interpret the tiny program, record every array read and write with its
/// iteration vector, and reconstruct the exact dependence set from the
/// memory trace. Two classes of witnesses are checked against the analyzer:
///
///  * memory-based: every ordered conflicting pair (at least one write to
///    the same location) must be admitted by some split -- dead or alive --
///    of the corresponding unrefined flow / anti / output dependence. A
///    miss here means the core dependence test lost a real dependence.
///
///  * value-based: every (last write before a read of the same location)
///    pair must be admitted by a LIVE split of the Section-4 flow result.
///    A miss here is a false kill -- exactly the soundness property the
///    paper's kill/cover/refine engine must preserve.
///
/// Reports collect mismatch strings instead of asserting, so the fuzz
/// driver can shrink failures; the GTest harness in tests/DiffHarness.h is
/// a thin EXPECT wrapper over this API.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_ORACLE_TRACEORACLE_H
#define OMEGA_ORACLE_TRACEORACLE_H

#include "analysis/Driver.h"
#include "ir/Interp.h"

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

namespace omega {
namespace oracle {

/// Identifies one access site: statement label, read/write, read ordinal.
using AccessKey = std::tuple<unsigned, bool, unsigned>;

/// Maps every access site of \p AP to its Access record, with read
/// ordinals assigned in canonical (source) order per statement.
std::map<AccessKey, const ir::Access *>
buildAccessMap(const ir::AnalyzedProgram &AP);

/// The Access record a trace entry executed, or null if unmapped.
const ir::Access *accessOf(const std::map<AccessKey, const ir::Access *> &Map,
                           const ir::TraceEntry &T);

/// Witness distance vector over the common loops of (Src, Dst), and its
/// carried level (0 == loop-independent).
void witnessShape(const ir::Access *Src, const ir::Access *Dst,
                  const ir::TraceEntry &A, const ir::TraceEntry &B,
                  std::vector<int64_t> &Dist, unsigned &Level);

/// Does some split of the dependence (Src -> Dst) admit the observed
/// distance vector? With \p RequireLive only living splits count.
bool witnessAdmitted(const std::vector<deps::Dependence> &Deps,
                     const ir::Access *Src, const ir::Access *Dst,
                     const std::vector<int64_t> &Dist, unsigned Level,
                     bool RequireLive);

struct TraceOracleOptions {
  std::map<std::string, int64_t> Symbols; ///< symbolic constant bindings
  uint64_t MaxSteps = 1u << 20;           ///< interpreter step budget
};

struct TraceReport {
  bool ExecFailed = false;
  bool Truncated = false;
  std::string ExecError;
  unsigned WitnessesChecked = 0;
  std::vector<std::string> Mismatches;

  /// True when the program executed to completion and every witness was
  /// admitted. A trivial trace (WitnessesChecked == 0) still counts as ok.
  bool ok() const { return !ExecFailed && !Truncated && Mismatches.empty(); }
  std::string summary() const;
};

/// Checks every executed witness of \p AP against an analysis result the
/// caller already computed: memory witnesses against \p UnrefinedFlow /
/// R.Anti / R.Output, value witnesses against the live splits of R.Flow.
TraceReport checkTraceWitnesses(const ir::AnalyzedProgram &AP,
                                const analysis::AnalysisResult &R,
                                const std::vector<deps::Dependence>
                                    &UnrefinedFlow,
                                const TraceOracleOptions &Opts =
                                    TraceOracleOptions());

/// Convenience entry: runs the Section 4 pipeline (and an unrefined flow
/// computation) itself, then checks the trace.
TraceReport checkProgram(const ir::AnalyzedProgram &AP,
                         const TraceOracleOptions &Opts = TraceOracleOptions(),
                         const analysis::DriverOptions &Driver =
                             analysis::DriverOptions());

/// Deterministic structural rendering of an analysis result (kinds, access
/// texts, per-split level/direction/liveness/refinement, cover flags).
/// Two results describe the same dependences iff their summaries are
/// string-equal -- the jobs identity check in omega-fuzz.
std::string summarizeDependences(const analysis::AnalysisResult &R);

} // namespace oracle
} // namespace omega

#endif // OMEGA_ORACLE_TRACEORACLE_H
