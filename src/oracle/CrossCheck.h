//===- oracle/CrossCheck.h - Whole-program oracle cross-checks ------------===//
//
// Part of the omega-deps project: a reproduction of Pugh & Wonnacott,
// "Eliminating False Data Dependences using the Omega Test" (PLDI 1992).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The full battery of checks run against one tiny-language program:
/// the Section 4 engine under every ablation combination (pair quick
/// tests on/off, jobs 1 vs N) with
/// structural results required identical, the trace oracle on each run,
/// and loop-bound-widening monotonicity. Shared by the omega-fuzz tool
/// and the regression-replay test so a shrunk reproducer is replayed by
/// exactly the checks that produced it.
///
//===----------------------------------------------------------------------===//

#ifndef OMEGA_ORACLE_CROSSCHECK_H
#define OMEGA_ORACLE_CROSSCHECK_H

#include "oracle/TraceOracle.h"

#include <string>
#include <vector>

namespace omega {
namespace oracle {

/// One engine configuration for the ablation cross-product.
struct AblationConfig {
  bool QuickTests;
  unsigned Jobs;
};

/// The configurations every program is checked under: quick tests on and
/// off, each single-threaded and at Jobs=4 to exercise the parallel
/// scheduler.
const std::vector<AblationConfig> &defaultAblations();

/// Runs the whole battery on \p Source: analyze, engine under every
/// ablation (summaries must be structurally identical), trace oracle per
/// run, and widening monotonicity. Returns one human-readable string per
/// mismatch; empty means the program passed (programs the front end
/// rejects also pass vacuously — the generator occasionally emits them).
std::vector<std::string>
crossCheckProgram(const std::string &Source,
                  const TraceOracleOptions &Opts = TraceOracleOptions());

} // namespace oracle
} // namespace omega

#endif // OMEGA_ORACLE_CROSSCHECK_H
