//===- oracle/CrossCheck.h - Whole-program oracle cross-checks ------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The full battery of checks run against one tiny-language program:
/// the Section 4 engine at jobs 1 and 4 with structural results required
/// identical, the trace oracle on each run, the schedule oracle on every
/// pipelined schedule, and loop-bound-widening monotonicity. Shared by
/// the omega-fuzz tool and the regression-replay test so a shrunk
/// reproducer is replayed by exactly the checks that produced it.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_ORACLE_CROSSCHECK_H
#define OMEGA_ORACLE_CROSSCHECK_H

#include "oracle/TraceOracle.h"

#include <string>
#include <vector>

namespace omega {
namespace oracle {

/// Runs the whole battery on \p Source: analyze, engine at jobs 1 and 4
/// (summaries must be structurally identical), trace oracle per run,
/// schedule oracle, and widening monotonicity. Returns one human-readable
/// string per mismatch; empty means the program passed (programs the
/// front end rejects also pass vacuously — the generator occasionally
/// emits them).
std::vector<std::string>
crossCheckProgram(const std::string &Source,
                  const TraceOracleOptions &Opts = TraceOracleOptions());

} // namespace oracle
} // namespace omega

#endif // OMEGA_ORACLE_CROSSCHECK_H
